"""The package's public surface: ``__all__`` names exactly what it binds."""

import types

import seqtrace


def test_all_has_no_duplicates():
    assert len(seqtrace.__all__) == len(set(seqtrace.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in seqtrace.__all__ if not hasattr(seqtrace, name)]
    assert missing == []


def test_every_public_name_is_listed():
    bound = {name for name, value in vars(seqtrace).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(seqtrace.__all__)


def test_removed_names_stay_gone():
    for name in ("TraceLog", "Witness", "theorem1_check", "peers", "Diagnostic", "namespace_of"):
        assert not hasattr(seqtrace, name), name
        assert name not in seqtrace.__all__
    assert not hasattr(seqtrace.ast, "peers")
