"""Radial interpolation of two Lipschitz maps across a spherical shell.

Given 0 < a < b and maps f1, f2 with f1(0) = f2(0) = 0 and
Lip(f1) + Lip(f2) <= 1, the blend equals f1 inside radius a, f2 outside
radius b and mixes radially in between; its Lipschitz constant is at most
1 + a/(b-a).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .fn import BlendFn, ConstFn, LipFn, SumFn
from .spaces import NormedSpace


@dataclass
class BlendSpec:
    """The blend of f1 and f2 across the shell a < ||x|| < b, built as fn.

    BlendFn checks 0 < a < b and that f1 and f2 share domain and codomain;
    a piece with nonzero value at 0 is shifted by that constant first.
    """

    a: float
    b: float
    f1: LipFn
    f2: LipFn
    lip1: float
    lip2: float
    space: NormedSpace
    fn: BlendFn = field(init=False, repr=False)

    def __post_init__(self):
        if self.lip1 < 0 or self.lip2 < 0 or self.lip1 + self.lip2 > 1.0 + 1e-12:
            raise InputError("need lip1, lip2 >= 0 with lip1 + lip2 <= 1")
        self.f1 = self._anchor(self.f1, "f1")
        self.f2 = self._anchor(self.f2, "f2")
        self.fn = BlendFn(self.a, self.b, self.f1, self.f2, self.space,
                          lip1=self.lip1, lip2=self.lip2)

    @staticmethod
    def _anchor(f, name):
        v = f(np.zeros(f.d))
        if np.max(np.abs(v)) <= 1e-12:
            return f
        warnings.warn("%s(0) != 0; subtracting the constant %r" % (name, v))
        return SumFn([f, ConstFn(v, f.d)], [1.0, -1.0])
