"""The value types that hold an array compare and hash by identity."""

import dataclasses
import importlib
import pkgutil

import pytest

import ratiolab
from ratiolab.eigen import DenseSymmetric, EigenDecomposition, jacobi_eigenvalues, materialize
from ratiolab.farey import FareySequence, TotientTable, farey_sequence, totient_sieve
from ratiolab.hadamard import SignMatrix, sylvester
from ratiolab.integrands import EXP
from ratiolab.matrix_core import SampledMatrixSpec

#: One builder per array type; each call returns a fresh value with equal contents.
BUILDERS = {
    TotientTable: lambda: totient_sieve(5),
    FareySequence: lambda: farey_sequence(5),
    DenseSymmetric: lambda: materialize(SampledMatrixSpec(EXP, 3)),
    EigenDecomposition: lambda: jacobi_eigenvalues(materialize(SampledMatrixSpec(EXP, 3))),
    SignMatrix: lambda: sylvester(2),
}


def _package_dataclasses():
    for info in pkgutil.iter_modules(ratiolab.__path__):
        module = importlib.import_module(f"ratiolab.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                if dataclasses.is_dataclass(obj):
                    yield obj


@pytest.mark.parametrize("cls", list(BUILDERS), ids=lambda cls: cls.__name__)
def test_array_types_compare_and_hash_by_identity(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert type(a) is type(b) is cls
    assert a == a
    assert (a == b) is False
    assert a != b
    assert hash(a) == hash(a)
    assert a in {a}
    assert b not in {a}


def test_only_the_array_types_skip_generated_equality():
    by_identity = {cls for cls in _package_dataclasses() if not cls.__dataclass_params__.eq}
    assert by_identity == set(BUILDERS)
