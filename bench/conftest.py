import sys
from pathlib import Path

# the harness tests import ratiolab from the source tree, as worker.py does
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
