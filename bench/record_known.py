"""Write bench/known_answers.json from the current code.

The file holds the status of every check id of the CLI matrix, of the
no-constraint theorem runs and of the mutant suites, and the SHA-256 of the
orbit JSON from the fixed starts.  Verdicts do not depend on the seed, so
one seed records them.  Run it only to pin a verdict change that is meant:

    python3 bench/record_known.py
"""

import json
import sys

import run

run.import_package()
import workloads  # noqa: E402


def main() -> None:
    fams = workloads.Families()
    seed = 0
    cli_answers = {}
    for cmd in workloads.MATRIX:
        for fam in workloads.FAMILIES:
            cli_answers[f"{cmd} {fam}"] = ["--seed", str(seed)]
    for fam in workloads.SIZES["full"]["no_constraint"]:
        cli_answers[f"verify-theorem {fam} --no-constraint"] = ["--seed", str(seed),
                                                               "--no-constraint"]
    known = {"cli": {}, "mutants": {}, "orbit_sha256": {}}
    for key, extra in cli_answers.items():
        cmd, fam = key.split()[:2]
        rc, text = workloads.call_cli([cmd, "--family", fam, "--format", "json", *extra])
        known["cli"][key] = {"rc": rc, "checks": {c["id"]: c["status"]
                                                  for c in json.loads(text)["checks"]}}
    stub = {"cli": {}, "mutants": {f"{f} {g}": {} for f, g, _ in workloads.MUTATIONS}}
    for fam, gen, _ in workloads.MUTATIONS:
        checks = workloads.mutant_request(fams, stub, fam, gen, seed).run()
        known["mutants"][f"{fam} {gen}"] = {c[0]: c[1] for c in checks}
    for start_name, start in workloads.fixed_starts().items():
        for size in ("full", "smoke"):
            for fam, n in workloads.SIZES[size]["orbit_long"].items():
                rec = workloads.OrbitRecord("")
                out = workloads.run_orbit(fams.base[fam], start, n)
                problems = workloads.orbit_problems(fams.base[fam], start, n, out, None, rec)
                if problems:
                    sys.exit(f"orbit {fam} {n} {start_name}: {problems}")
                known["orbit_sha256"][f"{fam} {n} {start_name}"] = rec.sha256
    with open(workloads.KNOWN_PATH, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
