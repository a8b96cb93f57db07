"""The package's public names."""

import seaweeds


def test_every_export_resolves_and_the_list_is_sorted_without_duplicates():
    names = seaweeds.__all__
    assert [name for name in names if not hasattr(seaweeds, name)] == []
    assert names == sorted(set(names))
