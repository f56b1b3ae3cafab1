import pytest
from hypothesis import settings

# property tests build vectors and files; their run time varies too much for a deadline
settings.register_profile("classvec", deadline=None)
settings.load_profile("classvec")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = getattr(getattr(item, "function", None), "_acceptance", None)
    if marker is None:
        return
    # one verdict line per acceptance criterion, printed past capture
    if report.when == "call" or (report.when == "setup" and report.failed):
        num, name = marker
        word = "PASS" if report.passed else "FAIL"
        line = f"[acceptance {num:02d}] {name}: {word}"
        capman = item.config.pluginmanager.getplugin("capturemanager")
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print("\n" + line, flush=True)
        else:
            print("\n" + line, flush=True)
