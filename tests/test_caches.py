"""Process-global state: every memo cache in the package is bounded."""

import importlib
import inspect
import pkgutil

import nablamu


def _lru_wrappers():
    """Each ``functools.lru_cache`` wrapper defined in a ``nablamu`` module,
    at module level or in a class body, by qualified name."""
    for info in pkgutil.iter_modules(nablamu.__path__, "nablamu."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere; found at its home
            members = list(vars(obj).values()) if inspect.isclass(obj) else []
            for fn in [obj] + members:
                fn = getattr(fn, "__func__", fn)  # staticmethod, classmethod
                if hasattr(fn, "cache_parameters"):
                    yield f"{module.__name__}.{fn.__qualname__}", fn


def test_every_lru_cache_is_bounded():
    found = dict(_lru_wrappers())
    assert found, "no lru_cache wrapper found; the walk is broken"
    unbounded = [q for q, fn in found.items() if fn.cache_parameters()["maxsize"] is None]
    assert not unbounded, unbounded


def test_the_only_cache_is_the_member_sort():
    # the sweeps build what they read per call; only payload members are memoized
    assert list(dict(_lru_wrappers())) == ["nablamu.functors._members"]
