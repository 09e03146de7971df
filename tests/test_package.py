"""The package namespace: each public name is declared once, in its module."""

import mary
from mary import congruence, counting, series

MODULES = (congruence, counting, series)


def test_module_lists_are_disjoint_and_make_the_package_list():
    # a name in two lists would let one star import shadow another
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)) == 35
    assert sorted(mary.__all__) == sorted(names)


def test_package_names_are_the_modules_own_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mary, name) is getattr(module, name)
