"""Canonical JSON helpers and the field table of DAG nodes and regions.

All real numbers are encoded as C99 hex-float strings so that
serialize -> parse -> evaluate round-trips are bit-exact, and all
documents are dumped with sorted keys and fixed separators so that
identical inputs produce byte-identical files.

The document of every `LipFn` node and `Region` is defined in one place:
the class's `fields` tuple of (doc key, attribute, codec) in constructor
order, read by `encode_fields` and `decode_fields` through `CODECS`.  A
codec name ending in "?" marks a field that may be None; it is left out
of the document then.  The codecs for nodes, regions and spaces are added
to `CODECS` by the modules that own those types.
"""

import json
import math
from fractions import Fraction

import numpy as np

from .errors import InputError


def enc_float(v) -> str:
    v = float(v)
    if math.isnan(v) or math.isinf(v):
        raise ValueError("non-finite value cannot be serialized: %r" % v)
    return v.hex()


def dec_float(s) -> float:
    """A document's hex-float string or JSON number; InputError unless finite."""
    try:
        v = float.fromhex(s) if isinstance(s, str) else float(s)
    except OverflowError:
        v = math.inf
    except TypeError:  # null, a list or an object
        v = math.nan
    if isinstance(s, bool) or not math.isfinite(v):
        raise InputError("%.40r is not a finite number" % (s,))
    return v


def dec_bool(v) -> bool:
    if not isinstance(v, bool):
        raise InputError("%r is not true or false" % (v,))
    return v


def enc_vec(v):
    return [enc_float(x) for x in np.asarray(v, dtype=float).ravel()]


def dec_vec(lst):
    return np.array([dec_float(x) for x in lst], dtype=float)


def enc_mat(m):
    m = np.asarray(m, dtype=float)
    return [[enc_float(x) for x in row] for row in m]


def dec_mat(rows):
    return np.array([[dec_float(x) for x in row] for row in rows], dtype=float)


def enc_frac(fr: Fraction):
    return [str(fr.numerator), str(fr.denominator)]


def dec_frac(pair) -> Fraction:
    return Fraction(int(pair[0]), int(pair[1]))


CODECS = {
    "int": (int, int),
    "list": (list, list),
    "bool": (bool, dec_bool),
    "dict": (dict, dict),
    "float": (enc_float, dec_float),
    "floats": (lambda v: [enc_float(x) for x in v], lambda v: [dec_float(x) for x in v]),
    "vec": (enc_vec, dec_vec),
    "mat": (enc_mat, dec_mat),
    "frac": (enc_frac, dec_frac),
}


def encode_fields(obj, doc):
    """doc plus obj's fields, leaving out those whose value is None."""
    for key, attr, codec in obj.fields:
        value = getattr(obj, attr)
        if value is not None:
            doc[key] = CODECS[codec.rstrip("?")][0](value)
    return doc


def decode_fields(cls, doc):
    """cls(*fields decoded from doc); an optional field left out is None."""
    return cls(*(None if codec.endswith("?") and key not in doc
                 else CODECS[codec.rstrip("?")][1](doc[key])
                 for key, _, codec in cls.fields))


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def loads(text):
    return json.loads(text)


def dump_path(doc, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


def load_path(path):
    with open(path) as fh:
        return json.load(fh)
