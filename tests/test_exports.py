"""The package's public surface: ``ratioreg.__all__`` lists exactly what it exports."""

from __future__ import annotations

import types

import ratioreg as rr


def test_all_lists_every_public_name_once():
    """No duplicates, every entry resolves, and no public name is left out.

    So a deleted export cannot leave a dangling entry, and a new one must be listed.
    """
    assert len(rr.__all__) == len(set(rr.__all__))
    assert [name for name in rr.__all__ if not hasattr(rr, name)] == []
    public = {name for name, value in vars(rr).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(rr.__all__) == public
