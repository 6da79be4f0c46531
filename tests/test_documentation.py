"""Documentation hygiene: every public module, class, and function in the
library carries a docstring (deliverable (e): doc comments on every public
item)."""

import importlib
import inspect
import pkgutil

import repro

PACKAGES = [
    "repro", "repro.tensor", "repro.nn", "repro.optim", "repro.data",
    "repro.models", "repro.decoding", "repro.metrics", "repro.training",
    "repro.evaluation", "repro.experiments", "repro.runtime", "repro.serving",
]


def _iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in pkgutil.iter_modules(package.__path__):
            if info.name.startswith("_"):
                continue
            yield importlib.import_module(f"{package_name}.{info.name}")


def test_every_module_has_docstring():
    missing = [m.__name__ for m in _iter_modules() if not (m.__doc__ or "").strip()]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_class_and_function_has_docstring():
    missing = []
    for module in _iter_modules():
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if obj.__module__.startswith("repro") and not (obj.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
    assert not missing, f"public items without docstrings: {sorted(set(missing))}"


def test_public_methods_of_core_classes_documented():
    from repro.models.base import QuestionGenerator
    from repro.nn.module import Module
    from repro.tensor.core import Tensor

    missing = []
    for cls in (Tensor, Module, QuestionGenerator):
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            if not (getattr(member, "__doc__", "") or "").strip():
                missing.append(f"{cls.__name__}.{name}")
    assert not missing, missing
