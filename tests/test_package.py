import ckomega


def test_every_public_name_resolves():
    # `from ckomega import *` breaks if __all__ names a deleted module
    missing = [name for name in ckomega.__all__ if not hasattr(ckomega, name)]
    assert missing == []
