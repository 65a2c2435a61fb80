import fuzzykernels
from fuzzykernels import dataset, errors, gram, kernels, learn, sets, tnorms

MODULES = (errors, sets, tnorms, kernels, gram, learn, dataset)


def test_all_is_the_modules_all_lists():
    # the package declares no public name of its own
    names = [name for module in MODULES for name in module.__all__]
    assert fuzzykernels.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(fuzzykernels, name) is getattr(module, name)
