"""Checks the paper workload's answers against expected_answers.json.

LEIA: main's summary is a set of linear (in)equalities over pre-state
values and expected post-state values. Each expected row must be entailed
by it — a stronger invariant passes, a weaker or missing one fails.
Entailment is exact (Fourier-Motzkin over Fractions) after snapping each
computed coefficient to the nearest rational with a denominator of at most
10^4 when that is within 1e-6: the analysis rounds rows to a 2^-40 grid.
BI: posterior mass, listed state probabilities and marginals within 1e-6.
MDP: greatest expected reward within 1e-6 (relative).
"""

import json
import re
from fractions import Fraction
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected_answers.json")
TOL = 1e-6
SNAP_DENOMINATOR = 10**4

_TOKEN = re.compile(r"\s*(E\[|\]|==|>=|<=|[-+*]|\d+(?:\.\d+)?(?:/\d+)?|[A-Za-z_][A-Za-z0-9_]*'?)")


def _tokens(text):
    pos, out = 0, []
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("cannot parse %r at %d" % (text, pos))
        out.append(m.group(1))
        pos = m.end()
    return out


def _linear(tokens, i, stop, in_e):
    """Parses sum of terms until a token in `stop`; returns (coeffs, const,
    next index). Keys are ('pre', v) or ('E', v)."""
    coeffs, const, sign = {}, Fraction(0), 1
    expect_term = True
    while i < len(tokens) and tokens[i] not in stop:
        tok = tokens[i]
        if tok in "+-" and expect_term is False:
            sign = 1 if tok == "+" else -1
            expect_term = True
            i += 1
            continue
        if tok == "-":
            sign, i = -sign, i + 1
            continue
        factor = Fraction(1)
        if re.match(r"\d", tok):
            factor = Fraction(tok)
            i += 1
            if i < len(tokens) and tokens[i] == "*":
                i += 1
            elif i >= len(tokens) or tokens[i] in stop or tokens[i] in "+-":
                const += sign * factor
                sign, expect_term = 1, False
                continue
            tok = tokens[i]
        if tok == "E[":
            inner, inner_const, i = _linear(tokens, i + 1, {"]"}, True)
            if inner_const:
                raise ValueError("constant inside E[...]")
            for key, c in inner.items():
                coeffs[key] = coeffs.get(key, 0) + sign * factor * c
            i += 1  # ']'
        else:
            if in_e != tok.endswith("'"):
                raise ValueError("primed names belong inside E[...]: %r" % tok)
            key = ("E", tok[:-1]) if in_e else ("pre", tok)
            coeffs[key] = coeffs.get(key, 0) + sign * factor
            i += 1
        sign, expect_term = 1, False
    return coeffs, const, i


def parse_row(text):
    """'lhs op rhs' -> (op, coeffs, const) meaning lhs - rhs op 0."""
    toks = _tokens(text)
    lhs, lconst, i = _linear(toks, 0, {"==", ">=", "<="}, False)
    op = toks[i]
    rhs, rconst, _ = _linear(toks, i + 1, set(), False)
    coeffs = dict(lhs)
    for key, c in rhs.items():
        coeffs[key] = coeffs.get(key, 0) - c
    return op, coeffs, lconst - rconst


def _snap(x):
    s = x.limit_denominator(SNAP_DENOMINATOR)
    return s if abs(s - x) <= TOL * max(1, abs(x)) else x


def computed_rows(answer):
    """The driver's exact rows, normalized and snapped:
    [(is_eq, [coeff per dim], const)] meaning coeffs . v + const (==|>=) 0."""
    rows = []
    for kind, const, *coeffs in answer["rows"]:
        cs = [Fraction(c) for c in coeffs]
        scale = max((abs(c) for c in cs), default=0)
        if not scale:
            continue
        rows.append((kind == "eq", [_snap(c / scale) for c in cs],
                     _snap(Fraction(const) / scale)))
    return rows


def _substitute(row, eq, j):
    """Eliminates dim j from `row` using equality `eq`."""
    is_eq, c, k = row
    _, ec, ek = eq
    f = c[j] / ec[j]
    return (is_eq, [a - f * b for a, b in zip(c, ec)], k - f * ek)


def minimize(rows, objective):
    """min of objective . v over the rows' polyhedron: a Fraction, None when
    unbounded below, or 'empty'."""
    n = len(objective)
    # t = objective . v as one more dimension, then eliminate every v.
    rows = [(e, list(c) + [Fraction(0)], k) for e, c, k in rows]
    rows.append((True, [-o for o in objective] + [Fraction(1)], Fraction(0)))
    for j in range(n):
        eq = next((r for r in rows if r[0] and r[1][j] != 0), None)
        if eq is not None:
            rows = [_substitute(r, eq, j) if r[1][j] != 0 else r
                    for r in rows if r is not eq]
            continue
        pos = [r for r in rows if r[1][j] > 0]
        neg = [r for r in rows if r[1][j] < 0]
        keep = [r for r in rows if r[1][j] == 0]
        for _, pc, pk in pos:
            for _, nc, nk in neg:
                a, b = -nc[j], pc[j]
                keep.append((False, [a * x + b * y for x, y in zip(pc, nc)],
                             a * pk + b * nk))
        rows = list({(e, tuple(c), k): (e, c, k) for e, c, k in keep}.values())
    lower = None
    for is_eq, c, k in rows:
        a = c[n]
        if a == 0:
            if (is_eq and k != 0) or k < 0:
                return "empty"
            continue
        bound = -k / a
        if is_eq:
            return bound
        if a > 0:
            lower = bound if lower is None else max(lower, bound)
    return lower


def check_leia(answer, expected):
    if answer.get("bottom"):
        return ["the summary of main is bottom"]
    names = answer["vars"]
    dims = {("pre", v): i for i, v in enumerate(names)}
    dims.update({("E", v): len(names) + i for i, v in enumerate(names)})
    rows = computed_rows(answer)
    failures = []
    for text in expected:
        op, coeffs, const = parse_row(text)
        obj = [Fraction(0)] * (2 * len(names))
        for key, c in coeffs.items():
            if key not in dims:
                return ["unknown variable %s in %r" % (key[1], text)]
            obj[dims[key]] = c
        senses = {"==": (1, -1), ">=": (1,), "<=": (-1,)}[op]
        for s in senses:
            m = minimize(rows, [s * o for o in obj])
            if m == "empty":
                continue
            if m is None or m + s * const < 0:
                failures.append("not entailed: " + text)
                break
    return failures


def _close(x, want):
    return abs(x - float(Fraction(want))) <= TOL * max(1, abs(float(Fraction(want))))


def check_bi(answer, expected):
    failures = []
    if "mass" in expected and not _close(answer["mass"], expected["mass"]):
        failures.append("mass %r, expected %s" % (answer["mass"], expected["mass"]))
    for state, p in expected.get("states", {}).items():
        got = answer["states"].get(state, 0.0)
        if not _close(got, p):
            failures.append("P%s = %r, expected %s" % (state, got, p))
    for var, p in expected.get("marginals", {}).items():
        got = sum(q for s, q in answer["states"].items()
                  if re.search(r"\b%s=T\b" % re.escape(var), s))
        if not _close(got, p):
            failures.append("P[%s] = %r, expected %s" % (var, got, p))
    return failures


def check(name, answer, expected=None):
    """Failure messages for program `name` ('leia/eg', ...); [] when right."""
    if expected is None:
        expected = json.loads(EXPECTED.read_text())
    table, prog = name.split("/", 1)
    want = expected.get(table, {}).get(prog)
    if want is None:
        return ["no expected answer for " + name]
    if answer is None:
        return ["no answer"]
    if table == "leia":
        return check_leia(answer, want)
    if table == "bi":
        return check_bi(answer, want)
    if not _close(answer["reward"], want):
        return ["reward %r, expected %s" % (answer["reward"], want)]
    return []
