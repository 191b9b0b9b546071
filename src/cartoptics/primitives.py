"""Builtin real-vector primitives, resolvable by name from signature files.

Every affine family member is deterministic: its weights are drawn from a PRNG
seeded with a CRC of the builtin name and the boundary dimensions, so the same
name always denotes the same function.  Weights are drawn when a primitive is
first applied, not when it is resolved, and kept read-only in one cache keyed
by (tag, m, n), which a forward primitive and its `_vjp` share: loading a
signature draws nothing.  Each forward primitive has a matching
`*_vjp` transpose-derivative: given the primal input and an output cotangent
it returns the input cotangent, which is what backward passes are built from.

Every builtin acts on the last axis of its arguments, and any leading axes
are a batch: a (K, m) input gives a (K, n) output, row k the image of row k.
On one vector the matrix products give bitwise the results of `w @ x + b`
and `w.T @ c`.
"""

from __future__ import annotations

import functools
import re
import zlib
from typing import Callable

import numpy as np

from .signature import Obj, RealVector, SignatureError


def _real_dims(obj: Obj, name: str, role: str) -> list[int]:
    dims = []
    for s in obj:
        if not isinstance(s.carrier, RealVector):
            raise SignatureError(f"builtin {name}: {role} sort {s.name} is not real")
        dims.append(s.carrier.dimension)
    return dims


def _seeded(name: str, *dims: int) -> np.random.Generator:
    key = f"{name}:{':'.join(map(str, dims))}".encode()
    return np.random.default_rng(zlib.crc32(key))


@functools.cache
def _affine_weights(tag: str, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = _seeded(f"affine_{tag}", m, n)
    w = rng.standard_normal((n, m)) / np.sqrt(m)
    b = rng.standard_normal(n) * 0.1
    w.flags.writeable = b.flags.writeable = False
    return w, b


def resolve(name: str, dom: Obj, cod: Obj) -> Callable[[tuple], tuple]:
    """Return the callable for a builtin primitive name, checking dimensions."""
    ddims = _real_dims(dom, name, "dom")
    cdims = _real_dims(cod, name, "cod")

    if name == "tanh":
        if len(ddims) != 1 or ddims != cdims:
            raise SignatureError("builtin tanh: expects one real sort, dom = cod")

        def fn(args):
            return (np.tanh(args[0]),)

    elif name == "tanh_vjp":
        if len(ddims) != 2 or ddims[0] != ddims[1] or cdims != [ddims[0]]:
            raise SignatureError("builtin tanh_vjp: expects (x, cotangent) -> x-cotangent")

        def fn(args):
            x, c = args
            y = np.tanh(x)
            return (c * (1.0 - y * y),)

    elif m := re.fullmatch(r"affine_tanh_vjp_(\w+)", name):
        if len(ddims) != 2 or len(cdims) != 1 or cdims[0] != ddims[0]:
            raise SignatureError(f"builtin {name}: expects (x, cotangent) -> x-cotangent")
        key = ("tanh_" + m.group(1), ddims[0], ddims[1])

        def fn(args):
            x, c = args
            w, b = _affine_weights(*key)
            y = np.tanh(x @ w.T + b)
            return ((c * (1.0 - y * y)) @ w,)

    elif m := re.fullmatch(r"affine_tanh_(\w+)", name):
        if len(ddims) != 1 or len(cdims) != 1:
            raise SignatureError(f"builtin {name}: expects one real sort each side")
        key = ("tanh_" + m.group(1), ddims[0], cdims[0])

        def fn(args):
            w, b = _affine_weights(*key)
            return (np.tanh(args[0] @ w.T + b),)

    elif m := re.fullmatch(r"affine_vjp_(\w+)", name):
        if len(ddims) != 2 or len(cdims) != 1 or cdims[0] != ddims[0]:
            raise SignatureError(f"builtin {name}: expects (x, cotangent) -> x-cotangent")
        key = (m.group(1), ddims[0], ddims[1])

        def fn(args):
            return (args[1] @ _affine_weights(*key)[0],)

    elif m := re.fullmatch(r"affine_(\w+)", name):
        if len(ddims) != 1 or len(cdims) != 1:
            raise SignatureError(f"builtin {name}: expects one real sort each side")
        key = (m.group(1), ddims[0], cdims[0])

        def fn(args):
            w, b = _affine_weights(*key)
            return (args[0] @ w.T + b,)

    else:
        raise SignatureError(f"unknown builtin primitive {name!r}")

    fn.builtin_name = name  # type: ignore[attr-defined]
    return fn
