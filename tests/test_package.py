"""Package surface: the exported names."""
import mobman


def test_all_names_resolve_and_star_import():
    assert [n for n in mobman.__all__ if not hasattr(mobman, n)] == []
    assert len(set(mobman.__all__)) == len(mobman.__all__)
    namespace = {}
    exec("from mobman import *", namespace)
    assert set(mobman.__all__) <= set(namespace)
