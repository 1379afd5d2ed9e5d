"""Keep the suite off the checkout's ``.repro-cache``.

The experiment engine (``cache="default"``) and the process-wide
schedule cache default to ``<repo>/.repro-cache``, so a test run would
read entries an earlier run wrote there and leave its own behind.
Before any test is collected, both defaults are pointed at a temporary
directory for the session and the process-wide schedule cache is reset;
CLI tests run in subprocesses inherit the variables.
"""

import os
import shutil
import tempfile

_ENV = ("REPRO_CACHE_DIR", "REPRO_SCHEDULE_DIR")
_saved: dict = {}


def pytest_configure(config):
    from repro.schedule import set_default_cache

    root = tempfile.mkdtemp(prefix="repro-test-cache-")
    _saved.update(root=root, env={name: os.environ.get(name) for name in _ENV})
    os.environ["REPRO_CACHE_DIR"] = os.path.join(root, "cache")
    os.environ["REPRO_SCHEDULE_DIR"] = os.path.join(root, "schedules")
    set_default_cache(None)


def pytest_unconfigure(config):
    from repro.schedule import set_default_cache

    set_default_cache(None)
    for name, value in _saved.pop("env", {}).items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    shutil.rmtree(_saved.pop("root", ""), ignore_errors=True)
