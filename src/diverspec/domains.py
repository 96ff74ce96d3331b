"""The legal values of every config key and flag, keyed by name (``k_hops`` for ``--k-hops``).

A number's domain is ``(low, high, ends)``, ``ends`` one of "[]", "[)", "(]" and "()";
a string's is its tuple of choices. Rules that tie two keys together stay with their
dataclass; the Jacobi parameters keep their check in :class:`polynomials.Jacobi`.
"""

from math import inf, isfinite

from .errors import ConfigError, UsageError

_AT_LEAST_1, _NONNEGATIVE, _POSITIVE = (1, inf, "[)"), (0, inf, "[)"), (0, inf, "()")

DOMAINS: dict[str, tuple] = {
    # DsfConfig
    "K": _AT_LEAST_1, "d": _AT_LEAST_1, "f_p": _AT_LEAST_1,
    "eta1": (0, 1, "[]"), "eta2": _NONNEGATIVE, "lambda_orth": _NONNEGATIVE,
    "dropout_p": (0, 1, "[)"), "ppr_alpha": (0, 1, "()"),
    "mode": ("I", "R"), "backbone": ("GPR", "Bern", "Jacobi"), "pe_init": ("LapPE", "RWPE"),
    "sigma_p": ("Sigmoid", "Tanh"), "gamma_init": ("ppr", "uniform", "random"),
    # TrainConfig
    "lr": _POSITIVE, "weight_decay": _NONNEGATIVE, "epochs": _AT_LEAST_1, "patience": _AT_LEAST_1,
    # flags, by command: train, diagnose, analyze, prop1-check ("all" comes last)
    "seed": _NONNEGATIVE, "runs": _AT_LEAST_1, "splits": _AT_LEAST_1,
    "split_mode": ("dense", "sparse"),
    "k_hops": _NONNEGATIVE, "dense_limit": _AT_LEAST_1,
    "variant": ("dsf", "baseline", "no-ipe"), "clusters": _AT_LEAST_1, "grid_size": (2, inf, "[)"),
    "basis": ("monomial", "bernstein", "jacobi", "all"),
    "order": _NONNEGATIVE, "trials": _AT_LEAST_1, "tolerance": _POSITIVE,
}


def _describe(low, high, ends: str) -> str:
    if high < inf:
        return f"in {ends[0]}{low}, {high}{ends[1]}"
    return f"at least {low}" if low else ("nonnegative" if ends[0] == "[" else "positive")


def check_domains(values: dict, flags: bool = False) -> None:
    """Raise on the first value outside its domain; names not in ``DOMAINS`` are skipped.

    Every number must be finite. Config keys raise :class:`ConfigError`; with
    ``flags`` the message names the flag and the error is a :class:`UsageError`.
    """
    for name, value in values.items():
        domain = DOMAINS.get(name)
        if domain is None:
            continue
        if isinstance(domain[0], str):
            legal, want = value in domain, f"one of {domain}"
        else:
            low, high, ends = domain
            above = low <= value if ends[0] == "[" else low < value
            below = value <= high if ends[1] == "]" else value < high
            legal, want = isfinite(value) and above and below, f"finite and {_describe(*domain)}"
        if not legal:
            label = "--" + name.replace("_", "-") if flags else name
            raise (UsageError if flags else ConfigError)(f"{label} must be {want}, got {value!r}")
