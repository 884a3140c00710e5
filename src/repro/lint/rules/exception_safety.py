"""Rule ``exception-safety``: no silent failure, no stray sleeps.

Two contracts, both stated in PR 3/PR 6 docstrings and both trivially
violated by a hurried ``try/except`` during a refactor:

- **No bare ``except:`` and no ``except BaseException:``** — a handler
  that can swallow ``KeyboardInterrupt``/``SystemExit`` (or any fault it
  did not anticipate) turns crash-consistency bugs into silent state
  corruption.  The one sanctioned pattern is the restore drain's
  containment, which *settles in-flight reads and re-raises*; that
  site carries an explicit waiver naming the reason, and any new site
  must do the same.

- **``time.sleep`` only in the latency-emulation module**
  (``repro/storage/device.py``) — everywhere else a sleep either fakes
  a latency the timing model should charge (corrupting benchmarks) or
  papers over a race the locks should prevent.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding
from repro.lint.framework import ModuleInfo, Rule

_DEFAULT_SLEEP_MODULES = ("repro/storage/device.py",)


class ExceptionSafetyRule(Rule):
    name = "exception-safety"
    description = (
        "no bare except / except BaseException (waive sanctioned drain "
        "paths); time.sleep only in the latency-emulation module"
    )

    def __init__(self, sleep_modules: tuple[str, ...] | None = None) -> None:
        self.sleep_modules = (
            _DEFAULT_SLEEP_MODULES if sleep_modules is None else sleep_modules
        )

    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        sleep_allowed = module.posix_path.endswith(self.sleep_modules)
        from_time_sleep = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "time"
            and any(alias.name == "sleep" for alias in node.names)
            for node in ast.walk(module.tree)
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                findings.extend(self._check_handler(module, node))
            elif isinstance(node, ast.Call) and not sleep_allowed:
                if self._is_sleep_call(node, from_time_sleep):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "time.sleep outside the latency-emulation module "
                            "(repro/storage/device.py) — real delays belong to "
                            "the emulator, which charges them to the timing "
                            "model",
                            hint="route modelled latency through "
                            "LatencyEmulator.charge, or waive with the reason "
                            "if this is genuinely wall-clock control",
                        )
                    )
        return findings

    def _check_handler(
        self, module: ModuleInfo, handler: ast.ExceptHandler
    ) -> list[Finding]:
        if handler.type is None:
            return [
                self.finding(
                    module,
                    handler,
                    "bare `except:` catches BaseException — SystemExit and "
                    "KeyboardInterrupt included — and hides faults the "
                    "durability contracts rely on seeing",
                    hint="catch the narrowest exception the operation can "
                    "raise; re-raise what you cannot handle",
                )
            ]
        if isinstance(handler.type, ast.Name) and handler.type.id == "BaseException":
            return [
                self.finding(
                    module,
                    handler,
                    "`except BaseException:` outside a sanctioned drain path — "
                    "only containment code that settles in-flight work and "
                    "re-raises may do this, with a waiver naming the reason",
                    hint="see repro.runtime.drain.drain for the sanctioned pattern",
                )
            ]
        return []

    @staticmethod
    def _is_sleep_call(call: ast.Call, from_time_sleep: bool) -> bool:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            return True
        return (
            from_time_sleep and isinstance(func, ast.Name) and func.id == "sleep"
        )
