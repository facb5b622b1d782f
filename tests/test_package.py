import types

import sizedhedonic


def test_every_exported_name_resolves():
    assert len(set(sizedhedonic.__all__)) == len(sizedhedonic.__all__)
    for name in sizedhedonic.__all__:
        assert not isinstance(getattr(sizedhedonic, name), types.ModuleType), name

