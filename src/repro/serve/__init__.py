"""``repro.serve`` — the fault-tolerant compilation-and-experiment
daemon (DESIGN.md §17).

Layers, bottom up:

- :mod:`repro.serve.http` — a tiny asyncio HTTP/1.1 reader/writer with
  hard caps (never lets a malformed request near the app);
- :mod:`repro.serve.protocol` — request validation/canonicalisation and
  the success/error JSON envelopes;
- :mod:`repro.serve.workers` — the crash-only subprocess worker pool;
- :mod:`repro.serve.admission` — token-bucket / queue-depth / RSS gate;
- :mod:`repro.serve.coalesce` — single-flight coalescing on content hash;
- :mod:`repro.serve.breaker` — circuit breakers (per-spec quarantine
  board + the dedicated native-toolchain breaker);
- :mod:`repro.serve.app` — :class:`~repro.serve.app.ServeApp`, wiring it
  all behind ``repro serve``.

The names below load on first use, so the experiment harness can import
:mod:`repro.serve.workers` for its worker pool without pulling asyncio
and the HTTP layers into every simulation process.
"""

import importlib

#: exported name -> submodule that defines it
_EXPORTS = {
    "AdmissionDecision": "admission",
    "AdmissionGate": "admission",
    "ServeApp": "app",
    "serve_main": "app",
    "BreakerBoard": "breaker",
    "CircuitBreaker": "breaker",
    "Coalescer": "coalesce",
    "ERROR_CODES": "protocol",
    "RequestError": "protocol",
    "ServeError": "protocol",
    "compile_request_key": "protocol",
    "experiment_request_key": "protocol",
    "normalize_compile_request": "protocol",
    "normalize_experiment_request": "protocol",
    "JobFailed": "workers",
    "WorkerCrash": "workers",
    "WorkerPool": "workers",
    "WorkerTimeout": "workers",
    "execute_job": "workers",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(f"repro.serve.{module}"), name)
