"""A user path: plain calls, a cProfile run, a child started with an
environment of its own, then a forked child that is SIGKILLed before it
can exit cleanly."""

import cProfile
import os
import signal
import subprocess
import sys

from reachpkg import mod

mod.used()
mod.decorated()
mod.Box().method()
cProfile.Profile().runcall(mod.profiled)
mod.after_profile()
subprocess.run(
    [sys.executable, "-c", "from reachpkg import mod; mod.spawned()"],
    env={"PYTHONPATH": os.path.dirname(os.path.abspath(__file__))},
    check=True,
)
pid = os.fork()
if pid == 0:
    mod.forked()
    os.kill(os.getpid(), signal.SIGKILL)
os.waitpid(pid, 0)
