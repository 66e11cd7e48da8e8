"""In-memory ``perf_counter`` spans around calls into the inertdrift modules.

A :class:`Tracer` replaces module, class or instance attributes with thin
wrappers that record one span per call: (name, start, end, parent).  Spans
stay in memory; the caller writes them out when the run ends.  Attributes
that do not exist (a later change renamed them) are listed in
:attr:`Tracer.missing` instead of failing the run, and the metrics built on
them are left out.
"""

import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.missing = set()
        self._stack = []
        self._patches = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def patch(self, owner, attr, name, make):
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`restore`.

        ``name`` is the metric family to mark missing when the attribute
        does not exist.  Returns whether the attribute was found.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return False
        # An attribute found on the class of an instance is restored by
        # deleting the instance's copy, not by binding the method onto it.
        own = isinstance(owner, type) or attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, make(original))
        return True

    def wrap(self, owner, attr, name):
        """Record a span named ``name`` around every call of ``owner.attr``."""

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                return self.call(name, original, *args, **kwargs)

            return traced

        return self.patch(owner, attr, name, make)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _outermost(self, name):
        """Spans called ``name`` that are not nested in another such span."""
        out = []
        for span in self.spans:
            if span[0] != name or span[2] is None:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                out.append(span)
        return out

    def seconds(self, name):
        return sum(end - start for _, start, end, _ in self._outermost(name))

    def count(self, name):
        return sum(1 for span in self.spans if span[0] == name)
