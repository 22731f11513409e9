"""Reference implementations that differential tests compare the
production kernels against, and a way to swap them into a whole run.

The modules hold the straightforward loops each fast kernel replaced:
:mod:`.analysis` (distances, k-means, BIC, BBV normalisation and
projection), :mod:`.engine` (the object trace builder and the loop
profilers) and :mod:`.detailed_walk` (the clip-based detailed walk).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from typing import Callable


class Swap:
    """Install reference functions in place of production ones.

    :meth:`function` rebinds every binding of a module-level function in
    the loaded ``repro`` modules, wherever it was imported to;
    :meth:`method` replaces a method on its class.  Every installed
    reference counts its calls in :attr:`calls`, so a test can show the
    references really ran.  All changes go through *monkeypatch* and are
    undone when the test ends.
    """

    def __init__(self, monkeypatch) -> None:
        self.monkeypatch = monkeypatch
        self.calls: Counter = Counter()

    def _counted(self, name: str, reference: Callable) -> Callable:
        @functools.wraps(reference)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return reference(*args, **kwargs)

        return counted

    def function(self, original: Callable, reference: Callable) -> None:
        """Rebind every ``repro`` binding of *original* to *reference*."""
        replacement = self._counted(original.__name__, reference)
        bound = 0
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.monkeypatch.setattr(module, attr, replacement)
                    bound += 1
        assert bound, f"{original.__qualname__} is bound nowhere"

    def method(self, cls: type, name: str, reference: Callable) -> None:
        """Replace ``cls.name`` with *reference* (self passed first)."""
        self.monkeypatch.setattr(
            cls, name, self._counted(f"{cls.__name__}.{name}", reference)
        )
