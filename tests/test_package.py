import topicsim


def test_star_import_gives_every_public_name():
    namespace: dict = {}
    exec("from topicsim import *", namespace)  # raises on a name the package lacks
    for name in topicsim.__all__:
        assert namespace[name] is getattr(topicsim, name)
