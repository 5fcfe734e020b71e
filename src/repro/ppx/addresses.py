"""Stack-frame based addressing with caching.

The C++ front end of PPX uses concatenated stack frames of each random-number
draw as a unique address identifying a latent variable (Section 4.2).  Stack
traces are obtained with ``backtrace(3)`` and converted to symbolic names with
``dladdr(3)``; because that conversion is expensive, the paper adds a hash map
caching ``dladdr`` results, giving a 5x speed-up in address-string production.

The Python analogue implemented here walks the interpreter frame stack from
the sample/observe call site up to the model entry point and concatenates
``file:function:lineno`` segments.  Everything about a frame except its line
number is a property of its code object — whether it is the entry point that
ends the walk, whether it is PPL/PPX machinery the walk skips, and its
symbolised ``file:function`` base — so the builder classifies each code object
once per process and keeps the answer keyed by the code object: the exact
counterpart of the dladdr cache.  ``use_cache=False`` re-derives every frame
from scratch, looking the entry marker up in the frame's live locals, and is
the ablation and equivalence reference.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, Optional

__all__ = ["AddressBuilder"]

#: roles of a frame that contributes no segment (any other role is its base)
_STOP = object()
_SKIP = object()

_MACHINERY = (f"{os.sep}repro{os.sep}ppl{os.sep}", f"{os.sep}repro{os.sep}ppx{os.sep}")

#: stop marker -> {code object: _STOP, _SKIP or the frame's ``file:function``
#: base}.  A pure function of its keys, so one table serves every builder and
#: thread of the process; a lost race only classifies a code object twice.
_ROLES: Dict[str, Dict[Any, Any]] = {}


def _symbolise(code) -> str:
    """Resolve one code object to a ``file:function`` base (the dladdr analogue)."""
    # Normalise to a short, stable path (basename of package-relative path).
    parts = code.co_filename.replace("\\", "/").split("/")
    short = "/".join(parts[-2:]) if len(parts) >= 2 else code.co_filename
    qualname = getattr(code, "co_qualname", code.co_name)
    return f"{short}:{qualname}"


def _is_machinery(code) -> bool:
    """A frame of this package's ppl/ppx layers, which addresses leave out."""
    return any(part in code.co_filename for part in _MACHINERY)


class AddressBuilder:
    """Builds unique address strings from the current call stack."""

    def __init__(self, use_cache: bool = True, max_depth: int = 16, stop_marker: str = "__ppl_model_entry__") -> None:
        self.use_cache = use_cache
        self.max_depth = max_depth
        self.stop_marker = stop_marker
        self._roles = _ROLES.setdefault(stop_marker, {})
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------ frames
    def _classify(self, code):
        """A code object's role: the entry point, machinery, or its base.

        The entry point is a function that binds the stop marker as a local
        (or is named after it), read from the code's variable names: the
        frame's locals hold exactly those once the marker is assigned.
        """
        self.cache_misses += 1
        marker = self.stop_marker
        names = (code.co_varnames, code.co_cellvars, code.co_freevars)
        if code.co_name == marker or any(marker in group for group in names):
            role = _STOP
        elif _is_machinery(code):
            role = _SKIP
        else:
            role = _symbolise(code)
        self._roles[code] = role
        return role

    def _reference_role(self, frame):
        """The uncached walk: every frame re-derived, the marker looked up in
        the frame's live locals."""
        code = frame.f_code
        if self.stop_marker in frame.f_locals or code.co_name == self.stop_marker:
            return _STOP
        if _is_machinery(code):
            return _SKIP
        self.cache_misses += 1
        return _symbolise(code)

    # ------------------------------------------------------------------ public
    def build(self, skip_frames: int = 2, explicit: Optional[str] = None) -> str:
        """Build the address for the current sample/observe call site.

        ``explicit`` short-circuits stack inspection when the caller provides
        an address (as PPX clients in other languages do), while ``skip_frames``
        drops the PPL-internal frames between the user call and this builder.
        """
        if explicit is not None:
            return explicit
        frame = sys._getframe(skip_frames)
        roles = self._roles if self.use_cache else None
        segments = []
        hits = 0
        while frame is not None and len(segments) < self.max_depth:
            if roles is None:
                role = self._reference_role(frame)
            else:
                role = roles.get(frame.f_code)
                if role is None:
                    role = self._classify(frame.f_code)
                else:
                    hits += 1
            if role is _STOP:
                break
            if role is not _SKIP:
                segments.append(f"{role}:{frame.f_lineno}")
            frame = frame.f_back
        self.cache_hits += hits
        if not segments:
            segments = ["<toplevel>"]
        return "|".join(reversed(segments))

    def clear_cache(self) -> None:
        self._roles.clear()
        self.cache_hits = 0
        self.cache_misses = 0

