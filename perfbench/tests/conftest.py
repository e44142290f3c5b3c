import sys
from pathlib import Path

# The benchmark imports panelbayes from the source tree next to it.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
