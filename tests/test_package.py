import types

import alphabound


def test_all_is_sorted_and_unique():
    assert alphabound.__all__ == sorted(set(alphabound.__all__))


def test_all_lists_every_public_name():
    public = {name for name, value in vars(alphabound).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(alphabound.__all__) == public


def test_all_entries_resolve():
    assert [name for name in alphabound.__all__ if not hasattr(alphabound, name)] == []
