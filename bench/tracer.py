"""Call counts and times per public hiercoop function, installed from outside.

The tracer wraps every public function a hiercoop module defines and binds
the wrapper in every hiercoop namespace that binds the original: the
defining module, each module that imported it by name, and the package
root. Missing one binding would undercount, since a call through it would
bypass the wrapper (layer_choice, for one, is bound in optimizer,
throughput, cli and the package root). restore() puts every original back.

Each wrapper adds its call's duration to the function's total and to its
caller's child time; self time is total minus child time.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from types import ModuleType

PACKAGE = "hiercoop"


@dataclass
class CallStats:
    """Accumulated figures for one traced function."""

    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


def package_modules() -> list[ModuleType]:
    """The package root and every imported hiercoop submodule."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def public_functions() -> dict[str, object]:
    """layer.function -> function, for every public function a module defines."""
    found = {}
    for mod in package_modules():
        layer = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                found[f"{layer}.{attr}"] = obj
    return found


class Tracer:
    """Wraps hiercoop's public functions in place; use as a context manager."""

    def __init__(self) -> None:
        self.stats: dict[str, CallStats] = {}
        self._originals: dict[int, object] = {}
        self._bindings: list[tuple[ModuleType, str, object]] = []
        self._stack: list[float] = []

    def _wrap(self, key: str, fn):
        stats = self.stats[key]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += stack.pop()
                if stack:
                    stack[-1] += elapsed

        wrapper.__bench_original__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every binding of every public function to its wrapper."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for key, fn in public_functions().items():
            self.stats.setdefault(key, CallStats())
            self._originals[id(fn)] = fn
            wrappers[id(fn)] = self._wrap(key, fn)
        for mod in package_modules():
            for attr, obj in list(vars(mod).items()):
                if self._originals.get(id(obj)) is obj:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def restore(self) -> None:
        """Put every original function back where install() found it."""
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, fn)
        self._bindings.clear()
        self._stack.clear()

    def unwrapped_bindings(self) -> list[str]:
        """module.attr of every binding that still holds an original function."""
        return [
            f"{mod.__name__}.{attr}"
            for mod in package_modules()
            for attr, obj in vars(mod).items()
            if self._originals.get(id(obj)) is obj
        ]

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def leftover_wrappers() -> list[str]:
    """module.attr of every binding that still holds a tracer wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in package_modules()
        for attr, obj in vars(mod).items()
        if hasattr(obj, "__bench_original__")
    ]
