"""The benchmark's own self-check, run as a tier-1 test.

`perfbench/run.py --self-check` runs every workload untraced and traced at
tiny sizes, with every correctness check the benchmark makes, including the
bitwise checks that the layer-by-layer encoder equals `Encoder.forward` and
that replayed distortion logs equal the written audio. A change under `src/`
that breaks one of them fails here, before any benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_check_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "self-check PASS" in proc.stdout
