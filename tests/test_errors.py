from xorcount import bounds, comb, dimacs, errors, gf2hash, oracle, tables


def test_each_exception_is_defined_once():
    assert gf2hash.ParameterError is comb.ParameterError is oracle.ParameterError
    assert tables.CapacityError is gf2hash.CapacityError
    assert oracle.DimensionError is gf2hash.DimensionError is errors.DimensionError
    assert dimacs.ParseError is errors.ParseError
    assert oracle.IntegrityError is errors.IntegrityError
    assert bounds.OracleUnknownError is errors.OracleUnknownError
