import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hypothesis import settings  # noqa: E402

# Same examples on every run, and no per-example deadline: a simulation
# example can take longer than hypothesis' 200 ms default.
settings.register_profile("fleetsim", deadline=None, derandomize=True)
settings.load_profile("fleetsim")
