"""The package's public names."""
import graphal


def test_every_public_name_resolves_once():
    names = graphal.__all__
    assert len(set(names)) == len(names), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(graphal, n)]
    assert not missing, missing
