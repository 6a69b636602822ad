"""In-memory span recorder that times calls into the library's layers.

The recorder replaces a public function or method with a timing wrapper at
the name its callers look it up by: a method on its class, or a function on
the module whose globals the caller reads (``from x import f`` binds ``f``
into the importing module, so that module is the one to patch).  Every call
becomes one span -- name, parent span, start, end -- kept in flat lists
until the process writes them out as JSONL.  Nothing under ``src/`` knows
the recorder exists; restoring the patches returns the library to its
original state.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_MISSING = object()


class SpanRecorder:
    """Records nested spans and counters for one single-threaded process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.counters: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record the enclosed block as one span; yields the span index."""
        index = self._open(name)
        self.starts[index] = time.perf_counter()
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``after(index, result, *args, **kwargs)`` runs outside the span once
        the call returns (``index`` is the span's), so counter bookkeeping is
        not billed to the layer.
        """
        original = getattr(owner, attr)
        own = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else original
        names, parents, starts, ends, stack = (
            self.names,
            self.parents,
            self.starts,
            self.ends,
            self._stack,
        )
        clock = time.perf_counter

        def timed(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(index, result, *args, **kwargs)
            return result

        timed.__wrapped__ = original
        setattr(owner, attr, timed)
        self._patches.append((owner, attr, own))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: its duration minus the part its child spans cover."""
        return self_times(self.parents, self.starts, self.ends)

    def summary(self, window: Optional[int] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total (inclusive) seconds, self seconds.

        With ``window`` set, only spans nested under that span index count.
        """
        selfs = self.self_times()
        inside = None if window is None else descendants(self.parents, window)
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, name in enumerate(self.names):
            if inside is not None and index not in inside:
                continue
            row = table[name]
            row["count"] += 1
            row["total_s"] += self.ends[index] - self.starts[index]
            row["self_s"] += selfs[index]
        return dict(table)

    def durations(self, name: str) -> List[float]:
        """Durations of every span called ``name``, in recording order."""
        return [
            self.ends[i] - self.starts[i] for i, n in enumerate(self.names) if n == name
        ]

    def write_jsonl(self, path) -> None:
        """Write one JSON object per span, then one holding the counters."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": self.parents[index],
                            "name": name,
                            "start": self.starts[index],
                            "end": self.ends[index],
                        }
                    )
                    + "\n"
                )
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> List[float]:
    """Self time of every span: duration minus the union of its children.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result never goes negative and the self times
    of a span tree sum to the root's duration.
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index in range(len(parents)):
        start, end = starts[index], ends[index]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=starts.__getitem__):
            lo = max(starts[child], cursor)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def descendants(parents: Sequence[int], root: int) -> set:
    """Indices of ``root`` and every span nested under it."""
    inside = {root}
    for index in range(root + 1, len(parents)):
        if parents[index] in inside:
            inside.add(index)
    return inside
