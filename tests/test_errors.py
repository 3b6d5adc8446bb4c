import importlib
import pkgutil

import pytest

import xorcount
from xorcount import bounds, comb, dimacs, errors, gf2hash, oracle, tables


def test_each_exception_is_defined_once():
    assert gf2hash.ParameterError is comb.ParameterError is oracle.ParameterError
    assert tables.CapacityError is errors.CapacityError
    assert oracle.DimensionError is gf2hash.DimensionError is errors.DimensionError
    assert dimacs.ParseError is errors.ParseError
    assert oracle.IntegrityError is errors.IntegrityError
    assert bounds.OracleUnknownError is errors.OracleUnknownError


@pytest.mark.parametrize("name", [info.name for info in
                                  pkgutil.iter_modules(xorcount.__path__)])
def test_every_exported_name_exists(name):
    # a name deleted from a module but left in its __all__ fails here
    module = importlib.import_module("xorcount." + name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
