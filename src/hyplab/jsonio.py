"""JSON schemas for scalars, vectors, matrices, series, plus deterministic emission.

Accepted scalar forms::

    {"e1": [re, im], "e2": [re, im]}      idempotent components
    {"w": [a, b, c, d]}                   a + b*i + c*j + d*k
    {"h": [b1, b2]}                       hyperbolic b1 + k*b2

Vectors: {"dim": n, "e1": [[re, im], ...], "e2": [[re, im], ...]}
Matrices: {"rows": r, "cols": c, "e1": [[[re, im], ...], ...], "e2": ...}
          or the cartesian alternative {"w": [[[a, b, c, d], ...], ...]}
Series: a JSON array of vectors, or
        {"kind": "geometric", "ratio": <scalar>, "seed_vector": <vector>}

Vector and matrix entries, cartesian ones included, are read at array
speed by ``_complex_array``; an input it refuses, or a cartesian entry that
overflows, is re-read entry by entry only to name the bad entry.

Emission always uses idempotent components (cartesian on request) and is
one call of the standard library's JSON encoder: no spaces, keys in
insertion order, strings ASCII-escaped, and every float written by
``repr``, the shortest decimal that reads back as the same double.  So
``json.loads`` gives back each float bit for bit, -0.0 and integral values
such as 2.0 included, and a document's bytes are the same on every
platform.  Non-finite floats keep the encoder's ``NaN`` and ``Infinity``
tokens, so that an inputs digest can hash a rejected ``--r inf``.  Numpy
scalars are written as their Python values.  Documents get complex entries
as plain floats from ``dmodule.complex_pairs``, the one emitter of [re, im]
lists.  ``digest`` hashes a document with each matrix, vector or bicomplex
scalar in its ``_CANON`` form, and each complex array as ``{"dtype": "<f8",
"shape": [*shape, 2], "sha256": <hex>}``, the SHA-256 of its little-endian
float64 [re, im] pairs; any other value is refused as ``dumps`` refuses it.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from typing import Any

import numpy as np

from .dmodule import BCVector, complex_pairs, geometric_terms, vector_doc
from .dop import BCMatrix
from .errors import InvalidInput
from .hyperscalar import Bicomplex, Hyperbolic


def _plain(obj):
    """The encoder's ``default``: a numpy scalar's Python value, else a TypeError."""
    if isinstance(obj, np.floating):  # not item(): a long double's is a long double
        return float(obj)
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Serialize to compact JSON, dict keys in insertion order and floats by ``repr``.

    A value of no JSON type, a key that is not a string, int, float, bool or
    None, and a container that holds itself raise ``InvalidInput``.
    """
    try:
        return json.dumps(obj, separators=(",", ":"), default=_plain)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(str(exc)) from exc


#: each library value's form in the digest, by its type; its arrays are hashed
_CANON = {
    BCMatrix: lambda T: {"rows": T.rows, "cols": T.cols, "e1": T.m1, "e2": T.m2},
    BCVector: lambda v: {"dim": v.dim, "e1": v.v1, "e2": v.v2},
    Bicomplex: lambda z: scalar_to_json(z),
}


def _hashed(obj):
    """``obj`` with each ``_CANON`` value and complex array it holds, as a dict
    value or as an item of a list that holds one or a dict, in its form."""
    if type(obj) in _CANON:
        obj = _CANON[type(obj)](obj)
    if type(obj) is dict:
        return {k: _hashed(v) for k, v in obj.items()}
    if type(obj) is list and not {dict, np.ndarray, *_CANON}.isdisjoint(map(type, obj)):
        return [*map(_hashed, obj)]
    if type(obj) is not np.ndarray:
        return obj
    data = np.ascontiguousarray(obj, "<c16").tobytes()
    return {"dtype": "<f8", "shape": [*obj.shape, 2], "sha256": hashlib.sha256(data).hexdigest()}


def digest(obj: Any) -> str:
    """SHA-256 of the canonical serialization, each library value in its form."""
    return hashlib.sha256(dumps(_hashed(obj)).encode("utf-8")).hexdigest()


def _num(x, *, what: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InvalidInput(f"{what}: expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError as exc:
        raise InvalidInput(f"{what}: integer literal beyond floating-point range") from exc


def _declared_size(obj: dict, key: str) -> int:
    """The optional "dim", "rows" or "cols" field, which must be an integer."""
    size = obj[key]
    if isinstance(size, bool) or not isinstance(size, int):
        raise InvalidInput(f"declared {key} must be an integer, got {size!r}")
    return size


def _rows(x, *, what: str) -> list:
    """A matrix given as a list of rows, each row a list of entries."""
    if not isinstance(x, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in x):
        raise InvalidInput(f"{what} must be a list of rows, each a list of entries")
    return x


def _complex_array(x, depth: int, width: int = 2) -> np.ndarray | None:
    """Entries ``depth`` lists deep as one complex array, or None.

    The check accepts what ``_rows``, ``_pair`` and ``_cartesian`` accept:
    equal-length lists or tuples, ``depth - 1`` levels of them above the
    entries of ``width`` numbers that are no bools.  The entries become one
    float array viewed as complex, which keeps the bits of ``complex(re,
    im)``, -0.0 included: an [re, im] pair gives one value, an [a, b, c, d]
    entry the pair (a + b*i, c + d*i).  None means some entry fails the
    check, and the per-entry reading names it.
    """
    shape, level = [], [x]
    for _ in range(depth + 1):
        if not all(issubclass(t, (list, tuple)) for t in {*map(type, level)}):
            return None
        widths = {*map(len, level)}
        if len(widths) != 1:
            return None
        shape.append(widths.pop())
        level = list(chain.from_iterable(level))
    if shape[-1] != width or not all(t is not bool and issubclass(t, (int, float)) for t in {*map(type, level)}):
        return None
    try:
        z = np.array(level, dtype=float).reshape(shape).view(complex)
    except OverflowError:  # an integer beyond the float range
        return None
    return z[..., 0] if width == 2 else z


def _pair(x, *, what: str) -> complex:
    if not isinstance(x, (list, tuple)) or len(x) != 2:
        raise InvalidInput(f"{what}: expected [re, im], got {x!r}")
    return complex(_num(x[0], what=what), _num(x[1], what=what))


def _cartesian(x) -> Bicomplex:
    if not isinstance(x, (list, tuple)) or len(x) != 4:
        raise InvalidInput(f"cartesian entry must be [a, b, c, d], got {x!r}")
    return Bicomplex.from_reals(*(_num(v, what="matrix w") for v in x))


def parse_scalar(obj) -> Bicomplex:
    """Read a scalar in any accepted form; always returns a Bicomplex."""
    if not isinstance(obj, dict):
        raise InvalidInput(f"scalar must be a JSON object, got {type(obj).__name__}")
    if "e1" in obj and "e2" in obj:
        return Bicomplex(_pair(obj["e1"], what="e1"), _pair(obj["e2"], what="e2"))
    if "w" in obj:
        w = obj["w"]
        if not isinstance(w, (list, tuple)) or len(w) != 4:
            raise InvalidInput(f"cartesian scalar must be [a, b, c, d], got {w!r}")
        return Bicomplex.from_reals(*(_num(v, what="w") for v in w))
    if "h" in obj:
        h = obj["h"]
        if not isinstance(h, (list, tuple)) or len(h) != 2:
            raise InvalidInput(f"hyperbolic scalar must be [b1, b2], got {h!r}")
        return Bicomplex.from_hyperbolic(
            Hyperbolic.from_cartesian(_num(h[0], what="h"), _num(h[1], what="h"))
        )
    raise InvalidInput(f"scalar object needs e1/e2, w, or h keys, got {sorted(obj)}")


def scalar_to_json(z, form: str = "idempotent") -> dict:
    """Emit a Bicomplex or Hyperbolic scalar."""
    if isinstance(z, Hyperbolic):
        z = Bicomplex.from_hyperbolic(z)
    if form == "idempotent":
        return {"e1": [z.z1.real, z.z1.imag], "e2": [z.z2.real, z.z2.imag]}
    if form == "cartesian":
        a, b, c, d = z.to_reals()
        return {"w": [a, b, c, d]}
    raise InvalidInput(f"unknown scalar form {form!r}")


def parse_vector(obj) -> BCVector:
    if not isinstance(obj, dict) or "e1" not in obj or "e2" not in obj:
        raise InvalidInput("vector must be an object with e1 and e2 entry lists")
    for key in ("e1", "e2"):
        if not isinstance(obj[key], (list, tuple)):
            raise InvalidInput(f"vector {key} must be a list of [re, im] pairs")
    v1, v2 = _complex_array(obj["e1"], 1), _complex_array(obj["e2"], 1)
    if v1 is None or v2 is None:  # the per-entry reading raises for the first bad entry
        v1 = [_pair(e, what="vector e1 entry") for e in obj["e1"]]
        v2 = [_pair(e, what="vector e2 entry") for e in obj["e2"]]
    v = BCVector(v1, v2)
    if "dim" in obj and _declared_size(obj, "dim") != v.dim:
        raise InvalidInput(f"declared dim {obj['dim']} but {v.dim} entries")
    return v


def vector_to_json(v: BCVector) -> dict:
    return vector_doc(v)


def parse_matrix(obj) -> BCMatrix:
    if not isinstance(obj, dict):
        raise InvalidInput("matrix must be a JSON object")
    if "w" in obj:
        rows = _rows(obj["w"], what="cartesian matrix")
        if not rows:
            raise InvalidInput("cartesian matrix must be a nonempty list of rows")
        w = _complex_array(rows, 2, width=4)
        with np.errstate(over="ignore", invalid="ignore"):  # Bicomplex.from_cartesian's arithmetic
            zs = None if w is None else (w[..., 0] - 1j * w[..., 1], w[..., 0] + 1j * w[..., 1])
        if zs is None or not np.isfinite(zs).all():  # the per-entry reading names a bad entry
            zs = [[_cartesian(entry) for entry in row] for row in rows]
            zs = [[z.z1 for z in row] for row in zs], [[z.z2 for z in row] for row in zs]
        mat = BCMatrix(*zs)
    elif "e1" in obj and "e2" in obj:
        m1, m2 = _complex_array(obj["e1"], 2), _complex_array(obj["e2"], 2)
        if m1 is None or m2 is None:  # the per-entry reading raises for the first bad entry
            m1 = [[_pair(e, what="matrix e1 entry") for e in row] for row in _rows(obj["e1"], what="matrix e1")]
            m2 = [[_pair(e, what="matrix e2 entry") for e in row] for row in _rows(obj["e2"], what="matrix e2")]
        mat = BCMatrix(m1, m2)
    else:
        raise InvalidInput(f"matrix object needs e1/e2 or w keys, got {sorted(obj)}")
    if "rows" in obj and _declared_size(obj, "rows") != mat.rows:
        raise InvalidInput(f"declared rows {obj['rows']} but matrix has {mat.rows}")
    if "cols" in obj and _declared_size(obj, "cols") != mat.cols:
        raise InvalidInput(f"declared cols {obj['cols']} but matrix has {mat.cols}")
    return mat


def matrix_to_json(T: BCMatrix) -> dict:
    return {
        "rows": T.rows,
        "cols": T.cols,
        "e1": complex_pairs(T.m1),
        "e2": complex_pairs(T.m2),
    }


def parse_series(obj):
    """An explicit list of vectors, or a generator spec (infinite)."""
    if isinstance(obj, list):
        if not obj:
            raise InvalidInput("series array must be nonempty")
        return [parse_vector(v) for v in obj]
    if isinstance(obj, dict) and obj.get("kind") == "geometric":
        if "ratio" not in obj or "seed_vector" not in obj:
            raise InvalidInput("geometric series spec needs ratio and seed_vector")
        return geometric_terms(parse_scalar(obj["ratio"]), parse_vector(obj["seed_vector"]))
    raise InvalidInput("series must be a vector array or a geometric generator spec")


def parse_hyp_literal(text: str) -> tuple[float, float]:
    """Parse the CLI literal "a1,a2" (or a single value used for both) as a
    float pair, non-finite values included: the pair is digested as the
    JSON array ``[a1,a2]``, and the caller builds the value after."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) == 1:
        parts = [parts[0], parts[0]]
    if len(parts) != 2:
        raise InvalidInput(f"expected 'a1,a2' literal, got {text!r}")
    try:
        a1, a2 = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InvalidInput(f"bad numeric literal in {text!r}") from exc
    return a1, a2


#: Deepest container nesting ``load_json`` accepts: far above the 5 levels
#: of a ``ubp`` family, the deepest input, and far below what ``dumps`` can
#: digest before it runs out of recursion.
MAX_DEPTH = 64
_CONTAINERS = {list, dict}


def _nesting(doc) -> int:
    """Container levels of a parsed document, counted up to MAX_DEPTH + 1."""
    depth, level = 0, [doc] if type(doc) in _CONTAINERS else []
    while level and depth <= MAX_DEPTH:
        depth += 1
        level = [
            x for c in level for x in (c.values() if type(c) is dict else c) if type(x) in _CONTAINERS
        ]
    return depth


def load_json(path: str):
    """Parse a UTF-8 JSON file nested at most ``MAX_DEPTH`` levels deep."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        too_deep = _nesting(doc) > MAX_DEPTH
    except RecursionError:  # nested beyond the parser's own limit
        too_deep = True
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read JSON from {path}: {exc}") from exc
    if too_deep:
        raise InvalidInput(f"cannot read JSON from {path}: nested deeper than {MAX_DEPTH} levels")
    return doc
