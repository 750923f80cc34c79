"""The benchmark's layer tracer must find every function it wraps: a program
change that renames or deletes one silently empties a `--trace 1` metric."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_tracer_finds_every_target():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from layertrace import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert tracer._patches
    finally:
        tracer.uninstall()
