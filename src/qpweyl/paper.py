"""The paper's data for the q-Painleve families D5, E6 and E7.

Only literals, texts in the paper's notation; nothing is imported or
parsed here.  weyl builds the family descriptors, lax the linear equation
L1, the gauge claims and the scalings, and evolution reads the relation
texts, the xi checks and the orbit roots.  Per family, beside the names,
the Dynkin edges (s indices) and the constraint:
  generators, xi   images, symbol -> text; an unlisted symbol is fixed
  evolution_word   W in T = xi o W^2, the rightmost letter acting first
  pi_relations     (lhs, rhs) words checked as listed, rhs "" the identity
  relations        rel1, rel2 as residuals in fbar = T(f), gbar = T(g), rel2
                   at the advanced parameters (kappa1 enters as kappa1/q)
  roots            per relation the orbit solver's (constants, top roots,
                   bottom roots), each at most 3 factors from q, nu1..nu8 and
                   the kappas k1, k2 the relation is taken at
  xi_generators    the zeta whose xi(zeta) = scaling(zeta) is checked
  xi_scaling       (kind of SCALINGS, scale) maps, the last acting first
  L1               coefficients of y(qz), y(z) and y(z/q)
"""

#: nu8 from kappa1^2 kappa2^2 = q nu1...nu8.
CONSTRAINT = "kappa1^2*kappa2^2/(q*nu1*nu2*nu3*nu4*nu5*nu6*nu7)"

#: What Theorem I asks of T besides fixing nu1..nu8.
T_IMAGES = {"kappa1": "kappa1/q", "kappa2": "q*kappa2"}

D5 = {
    "s_names": ("s0", "s1", "s2", "s3", "s4", "s5"),
    "pi_names": ("pi1", "pi2"),
    "dynkin_edges": ((0, 2), (1, 2), (2, 3), (3, 4), (3, 5)),
    "evolution_word": "pi2 pi1 s2 s1 s0 s2",
    "pi_relations": (
        ("pi1 s0", "s1 pi1"),
        ("pi1 s2", "s2 pi1"),
        ("pi1 s3", "s3 pi1"),
        ("pi1 s4", "s4 pi1"),
        ("pi1 s5", "s5 pi1"),
        ("pi2 s0", "s4 pi2"),
        ("pi2 s1", "s5 pi2"),
        ("pi2 s2", "s3 pi2"),
        ("(pi1 pi2)^4", ""),
    ),
    "constraint": CONSTRAINT,
    "generators": {
        "s0": {"nu7": "nu8", "nu8": "nu7"},
        "s1": {"nu3": "nu4", "nu4": "nu3"},
        "s2": {
            "nu3": "kappa1/nu7",
            "nu7": "kappa1/nu3",
            "kappa2": "kappa1*kappa2/(nu3*nu7)",
            "g": "g*(f - nu3)/(f - kappa1/nu7)",
        },
        "s3": {
            "nu1": "kappa2/nu5",
            "nu5": "kappa2/nu1",
            "kappa1": "kappa1*kappa2/(nu1*nu5)",
            "f": "f*(g - 1/nu1)/(g - nu5/kappa2)",
        },
        "s4": {"nu1": "nu2", "nu2": "nu1"},
        "s5": {"nu5": "nu6", "nu6": "nu5"},
        "pi1": {
            "q": "1/q",
            "nu1": "1/nu1", "nu2": "1/nu2",
            "nu3": "1/nu7", "nu4": "1/nu8",
            "nu5": "1/nu5", "nu6": "1/nu6",
            "nu7": "1/nu3", "nu8": "1/nu4",
            "kappa1": "1/kappa1", "kappa2": "1/kappa2",
            "f": "f/kappa1", "g": "1/g",
        },
        "pi2": {
            "q": "1/q",
            "nu1": "1/nu7", "nu2": "1/nu8",
            "nu3": "1/nu5", "nu4": "1/nu6",
            "nu5": "1/nu3", "nu6": "1/nu4",
            "nu7": "1/nu1", "nu8": "1/nu2",
            "kappa1": "1/kappa2", "kappa2": "1/kappa1",
            "f": "1/(kappa2*g)", "g": "kappa1/f",
        },
    },
    "xi": {
        "nu1": "nu1*nu5*nu6/kappa2",
        "nu2": "nu2*nu5*nu6/kappa2",
        "nu3": "kappa1/(q*nu4)",
        "nu4": "kappa1/(q*nu3)",
        "nu5": "nu5*nu1*nu2/kappa2",
        "nu6": "nu6*nu1*nu2/kappa2",
        "nu7": "kappa1/(q*nu8)",
        "nu8": "kappa1/(q*nu7)",
        "kappa1": "kappa1^3/(q^2*nu3*nu4*nu7*nu8)",
        "kappa2": "nu1*nu2*nu5*nu6/kappa2",
        "f": "f*kappa1/(q*nu3*nu4)",
        "g": "g*kappa2/(nu5*nu6)",
    },
    "relations": (
        "fbar*f*(g - 1/nu1)*(g - 1/nu2) - nu3*nu4*(g - nu5/kappa2)*(g - nu6/kappa2)",
        "gbar*g*nu1*nu2*(fbar - nu3)*(fbar - nu4)"
        " - (fbar - kappa1/(q*nu7))*(fbar - kappa1/(q*nu8))",
    ),
    "roots": (
        (("nu3*nu4",), ("nu5/k2", "nu6/k2"), ("1/nu1", "1/nu2")),
        (("1/(nu1*nu2)",), ("k1/nu7", "k1/nu8"), ("nu3", "nu4")),
    ),
    "xi_generators": ("nu1", "nu2", "nu3", "nu4", "nu5/kappa2", "nu6/kappa2",
                      "nu7/kappa1", "nu8/kappa1", "f", "g"),
    "xi_scaling": (("d5_power", "kappa2/(nu5*nu6)"), ("d5_dilation", "kappa1/(q*nu3*nu4)")),
    "L1": {
        "up": "-(z - kappa1/nu7)*(z - kappa1/nu8)/(q*(f - z))",
        "mid": "z*(g*nu1 - 1)*(g*nu2 - 1)/(q*g)"
               " - nu1*nu2*nu3*nu4*(g - nu5/kappa2)*(g - nu6/kappa2)/(f*g)"
               " + nu1*nu2*(z - q*nu3)*(z - q*nu4)*g/(q*(q*f - z))"
               " + (z - kappa1/nu7)*(z - kappa1/nu8)/(q*(f - z)*g)",
        "down": "-nu1*nu2*(z - q*nu3)*(z - q*nu4)/(q*(q*f - z))",
    },
}

E6 = {
    "s_names": ("s0", "s1", "s2", "s3", "s4", "s5", "s6"),
    "pi_names": ("pi1", "pi2"),
    "dynkin_edges": ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 0)),
    "evolution_word": "pi1 pi2 s4 s5 s3 s6 s4 s3 s0 s6",
    "pi_relations": (),
    "constraint": CONSTRAINT,
    "generators": {
        "s0": {"nu7": "nu8", "nu8": "nu7"},
        "s1": {"nu5": "nu6", "nu6": "nu5"},
        "s2": {
            "nu1": "kappa2/nu6",
            "nu6": "kappa2/nu1",
            "kappa1": "kappa1*kappa2/(nu1*nu6)",
            "f": "f*kappa2*(nu1*g - 1)/(-(kappa2 - nu1*nu6)*f*g + nu1*kappa2*g - nu1*nu6)",
        },
        "s3": {"nu1": "nu2", "nu2": "nu1"},
        "s4": {"nu2": "nu3", "nu3": "nu2"},
        "s5": {"nu3": "nu4", "nu4": "nu3"},
        "s6": {
            "nu1": "kappa1/nu7",
            "nu7": "kappa1/nu1",
            "kappa2": "kappa1*kappa2/(nu1*nu7)",
            "g": "g*nu7*(nu1 - f)/(kappa1 - nu7*f + (nu1*nu7 - kappa1)*f*g)",
        },
        "pi1": {
            "q": "1/q",
            "nu1": "nu2/kappa2", "nu2": "nu1/kappa2",
            "nu3": "1/nu6", "nu4": "1/nu5",
            "nu5": "1/nu4", "nu6": "1/nu3",
            "nu7": "1/nu7", "nu8": "1/nu8",
            "kappa1": "nu1*nu2/(kappa1*kappa2)", "kappa2": "1/kappa2",
            "f": "nu1*nu2*(1 - f*g)/(kappa2*(nu1*nu2*g + f - (nu1 + nu2)*f*g))",
            "g": "kappa2*g",
        },
        "pi2": {
            "q": "1/q",
            "nu1": "1/nu1", "nu2": "1/nu2", "nu3": "1/nu3", "nu4": "1/nu4",
            "nu5": "1/nu8", "nu6": "1/nu7", "nu7": "1/nu6", "nu8": "1/nu5",
            "kappa1": "1/kappa2", "kappa2": "1/kappa1",
            "f": "g", "g": "f",
        },
    },
    # Derived from the evolution word's square and the required
    # time-evolution images; the package tests hold the fixture chain.
    "xi": {
        "nu1": "nu1*nu5*nu6/kappa2",
        "nu2": "nu2*nu5*nu6/kappa2",
        "nu3": "nu3*nu5*nu6/kappa2",
        "nu4": "nu4*nu5*nu6/kappa2",
        "nu5": "nu5*kappa1/(q*kappa2)",
        "nu6": "nu6*kappa1/(q*kappa2)",
        "nu7": "kappa1/(q*nu8)",
        "nu8": "kappa1/(q*nu7)",
        "kappa1": "nu5*nu6*kappa1^2/(q*kappa2*nu7*nu8)",
        "kappa2": "nu5*nu6*kappa1/(q*kappa2)",
        "f": "f*nu5*nu6/kappa2",
        "g": "g*kappa2/(nu5*nu6)",
    },
    "relations": (
        "(fbar*g - 1)*(f*g - 1)*(g - nu5/kappa2)*(g - nu6/kappa2)"
        " - fbar*f*(g - 1/nu1)*(g - 1/nu2)*(g - 1/nu3)*(g - 1/nu4)",
        "(fbar*g - 1)*(fbar*gbar - 1)*(fbar - kappa1/(q*nu7))*(fbar - kappa1/(q*nu8))"
        " - g*gbar*(fbar - nu1)*(fbar - nu2)*(fbar - nu3)*(fbar - nu4)",
    ),
    "roots": (
        ((), ("1/nu1", "1/nu2", "1/nu3", "1/nu4"), ("nu5/k2", "nu6/k2")),
        ((), ("nu1", "nu2", "nu3", "nu4"), ("k1/nu7", "k1/nu8")),
    ),
    "xi_generators": ("nu1", "nu2", "nu3", "nu4", "nu5/kappa2", "nu6/kappa2",
                      "nu7/kappa1", "nu8/kappa1", "f", "g"),
    "xi_scaling": (("e", "nu5*nu6/kappa2"),),
    "L1": {
        "up": "-(kappa1/nu7 - z)*(kappa1/nu8 - z)/(q*(f - z))",
        "mid": "z*(g*nu1 - 1)*(g*nu2 - 1)*(g*nu3 - 1)*(g*nu4 - 1)/(g*(f*g - 1)*(g*z - q))"
               " - (g*kappa2/nu5 - 1)*(g*kappa2/nu6 - 1)*kappa1^2/(q*f*g*nu7*nu8)"
               " + (nu1 - z/q)*(nu2 - z/q)*(nu3 - z/q)*(nu4 - z/q)*g/((f - z/q)*(1 - g*z/q))"
               " + (kappa1/nu7 - z)*(kappa1/nu8 - z)*(1/g - z)/(q*(f - z))",
        "down": "-(nu1 - z/q)*(nu2 - z/q)*(nu3 - z/q)*(nu4 - z/q)/(f - z/q)",
    },
}

E7 = {
    "s_names": ("s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"),
    "pi_names": ("pi",),
    "dynkin_edges": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (4, 0)),
    # Staircase word: right wing outside-in, mirrored left wing, pivot s4,
    # closing s0.  This is the word whose square xi straightens into the
    # time evolution; restarting each left-wing run at s1 instead of its
    # mirror position breaks the nu3/nu4/nu6/nu7 images (the tests pin this).
    "evolution_word": "s4 s5 s3 s4 s6 s5 s2 s3 s4 s7 s6 s5 s1 s2 s3 s4 s0",
    "pi_relations": (),
    "constraint": CONSTRAINT,
    "generators": {
        "s0": {
            "kappa1": "kappa2", "kappa2": "kappa1",
            "f": "1/g", "g": "1/f",
        },
        "s1": {"nu3": "nu4", "nu4": "nu3"},
        "s2": {"nu2": "nu3", "nu3": "nu2"},
        "s3": {"nu1": "nu2", "nu2": "nu1"},
        "s4": {
            "nu1": "kappa2/nu5",
            "nu5": "kappa2/nu1",
            "kappa1": "kappa1*kappa2/(nu1*nu5)",
            "f": "(-kappa2*(nu1*nu5 - kappa1)*f*g - nu5*(kappa1 - kappa2)*f"
                 " + kappa1*(nu1*nu5 - kappa2))"
                 "/(nu5*(-(nu1*nu5 - kappa2)*f*g + nu1*(kappa1 - kappa2)*g"
                 " + (nu1*nu5 - kappa1)))",
        },
        "s5": {"nu5": "nu6", "nu6": "nu5"},
        "s6": {"nu6": "nu7", "nu7": "nu6"},
        "s7": {"nu7": "nu8", "nu8": "nu7"},
        "pi": {
            "q": "1/q",
            "nu1": "1/nu5", "nu2": "1/nu6", "nu3": "1/nu7", "nu4": "1/nu8",
            "nu5": "1/nu1", "nu6": "1/nu2", "nu7": "1/nu3", "nu8": "1/nu4",
            "kappa1": "1/kappa1", "kappa2": "1/kappa2",
            "f": "f/kappa1", "g": "kappa2*g",
        },
    },
    "xi": {
        "nu1": "nu1*kappa1/(q*kappa2)", "nu2": "nu2*kappa1/(q*kappa2)",
        "nu3": "nu3*kappa1/(q*kappa2)", "nu4": "nu4*kappa1/(q*kappa2)",
        "nu5": "nu5*kappa1/(q*kappa2)", "nu6": "nu6*kappa1/(q*kappa2)",
        "nu7": "nu7*kappa1/(q*kappa2)", "nu8": "nu8*kappa1/(q*kappa2)",
        "kappa1": "kappa1^3/(q^2*kappa2^2)",
        "kappa2": "kappa1^2/(q^2*kappa2)",
        "f": "f*kappa1/(q*kappa2)",
        "g": "g*q*kappa2/kappa1",
    },
    "relations": (
        "(fbar*g - kappa1/(q*kappa2))*(f*g - kappa1/kappa2)"
        "*(g - 1/nu1)*(g - 1/nu2)*(g - 1/nu3)*(g - 1/nu4)"
        " - (g - nu5/kappa2)*(g - nu6/kappa2)*(g - nu7/kappa2)*(g - nu8/kappa2)"
        "*(fbar*g - 1)*(f*g - 1)",
        "(gbar*fbar - kappa1/(q^2*kappa2))*(fbar*g - kappa1/(q*kappa2))"
        "*(fbar - nu1)*(fbar - nu2)*(fbar - nu3)*(fbar - nu4)"
        " - (fbar - kappa1/(q*nu5))*(fbar - kappa1/(q*nu6))"
        "*(fbar - kappa1/(q*nu7))*(fbar - kappa1/(q*nu8))"
        "*(gbar*fbar - 1)*(fbar*g - 1)",
    ),
    # The constants are c and q c.
    "roots": (
        (("k1/(q*k2)", "k1/k2"), ("nu5/k2", "nu6/k2", "nu7/k2", "nu8/k2"),
         ("1/nu1", "1/nu2", "1/nu3", "1/nu4")),
        (("k1/k2", "q*k1/k2"), ("k1/nu5", "k1/nu6", "k1/nu7", "k1/nu8"),
         ("nu1", "nu2", "nu3", "nu4")),
    ),
    "xi_generators": ("nu1", "nu2", "nu3", "nu4", "nu5/kappa1", "nu6/kappa1",
                      "nu7/kappa1", "nu8/kappa1", "kappa2/kappa1", "f", "g"),
    "xi_scaling": (("e", "kappa1/(q*kappa2)"),),
    "L1": {
        "up": "q*(kappa1 - nu5*z)*(kappa1 - nu6*z)*(kappa1 - nu7*z)*(kappa1 - nu8*z)"
              "/(kappa1^4*(f - z)*z^2)",
        "mid": "q*(kappa1 - kappa2)*(g*kappa2 - nu5)*(g*kappa2 - nu6)*(g*kappa2 - nu7)*(g*kappa2 - nu8)"
               "/(g*kappa1*kappa2^2*(f*g*kappa2 - kappa1)*(g*kappa2*z - kappa1))"
               " - q*(kappa1 - kappa2)*(g*nu1 - 1)*(g*nu2 - 1)*(g*nu3 - 1)*(g*nu4 - 1)"
               "/(g*(f*g - 1)*kappa1*nu1*nu2*nu3*nu4*(g*z - q))"
               " + (q*nu1 - z)*(q*nu2 - z)*(q*nu3 - z)*(q*nu4 - z)*(g*kappa2*z - kappa1*q)"
               "/(q*nu1*nu2*nu3*nu4*(f*q - z)*z^2*kappa1*(q - g*z))"
               " + q*(kappa1 - nu5*z)*(kappa1 - nu6*z)*(kappa1 - nu7*z)*(kappa1 - nu8*z)"
               "*(1 - g*z)/(kappa1^3*(f - z)*z^2*(g*kappa2*z - kappa1))",
        "down": "(q*nu1 - z)*(q*nu2 - z)*(q*nu3 - z)*(q*nu4 - z)"
                "/(q*nu1*nu2*nu3*nu4*(f*q - z)*z^2)",
    },
}

FAMILIES = {"D5": D5, "E6": E6, "E7": E7}

#: The parameter scalings the power gauge and the dilation induce, per kind:
#: (up, down), the symbols multiplied and divided by the scale.  They realize
#: the stated actions on composite quantities such as nu5/kappa2 and
#: nu7/kappa1.  E6 realizes "e" as dilation plus power gauge with c q^d = 1,
#: E7 as a pure dilation.
SCALINGS = {
    "d5_power": (("nu5", "nu6", "g"), ("nu1", "nu2")),
    "d5_dilation": (("nu3", "nu4", "f"), ("nu7", "nu8")),
    "e": (("nu1", "nu2", "nu3", "nu4", "f"), ("nu5", "nu6", "nu7", "nu8", "g")),
}

#: The gauge claims on L1, in report order: (id, family, gauges, target,
#: note).  A gauge is (kind, argument texts), a kind lax.apply_gauge names;
#: the target is a Weyl word, or a scaling spec as in xi_scaling.
CLAIMS = (
    ("d5.s2", "D5", (("pochhammer", "nu3", "kappa1/nu7"),), "s2",
     "single Pochhammer ratio exchanging nu3 and kappa1/nu7"),
    ("d5.s2s1s0s2", "D5",
     (("pochhammer", "nu3", "kappa1/nu7"), ("pochhammer", "nu4", "kappa1/nu8")),
     "s2 s1 s0 s2", "double Pochhammer ratio"),
    ("d5.G", "D5", (("power", "s"),), (("d5_power", "s"),),
     "power gauge z^d with delta = q^d = s"),
    ("d5.D", "D5", (("dilation", "c"),), (("d5_dilation", "c"),), "dilation z = u/c"),
    ("d5.inversion", "D5", (("inversion", "q*kappa1", "kappa2"),), "pi2 pi1 pi2 pi1",
     "inversion z = c/u with q^d = kappa2, c = q kappa1"),
    ("e6.s6", "E6", (("pochhammer", "nu1", "kappa1/nu7"),), "s6",
     "single Pochhammer ratio exchanging nu1 and kappa1/nu7"),
    ("e6.S", "E6", (("power", "1/c"), ("dilation", "c")), (("e", "c"),),
     "dilation plus power gauge with c q^d = 1"),
    # The Pochhammer ratio alone leaves the reciprocal factor pair
    # (up * nu1 nu5/kappa1, down * kappa1/(nu1 nu5)); the z^d rescaling
    # with q^d = kappa1/(nu1 nu5) removes it.
    ("e7.s0s4s0", "E7",
     (("pochhammer", "nu1", "kappa1/nu5"), ("power", "kappa1/(nu1*nu5)")), "s0 s4 s0",
     "Pochhammer ratio exchanging nu1 and kappa1/nu5, power-completed"),
    ("e7.S", "E7", (("dilation", "c"),), (("e", "c"),), "pure dilation"),
)
