"""Run a simulator in a separate process, coupled over PPX.

This is the deployment shape that makes Etalumis novel: the simulator (Sherpa,
nearly a million lines of C++) runs as its own process and the PPL controls it
purely through protocol messages.  Here the "foreign" simulator is one of the
Python programs in :mod:`repro.simulators`, launched with
``python -m repro.simulators.external`` so that it genuinely lives in another
interpreter and communicates only through a TCP socket.

Typical use (see ``examples/remote_simulator_ppx.py``)::

    remote, process = start_remote_model("tau_decay")
    posterior = remote.posterior({"detector": observation}, num_traces=200)
    remote.shutdown(); process.wait()
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from typing import Callable, Dict, Optional, Tuple

from repro.ppl.model import RemoteModel
from repro.ppx.client import SimulatorClient
from repro.ppx.transport import SocketTransport, connect_tcp, listen_tcp

__all__ = ["SIMULATOR_REGISTRY", "start_remote_model", "run_client", "main"]


def _tau_decay_simulator(client):
    from repro.simulators.tau_decay import TauDecayConfig, tau_decay_program

    return None if tau_decay_program(client, TauDecayConfig()) is None else 0


def _gaussian_simulator(client):
    """A tiny two-latent Gaussian model used by tests (fast to run remotely)."""
    import numpy as np

    from repro.distributions import Normal

    mu = client.sample(Normal(0.0, 1.0), name="mu")
    client.observe(Normal(float(np.asarray(mu)), 0.5), value=0.0, name="obs")
    return float(np.asarray(mu))


def _spectroscopy_simulator(client):
    from repro.simulators.spectroscopy import SpectroscopyConfig, spectroscopy_program

    spectroscopy_program(client, SpectroscopyConfig())
    return 0


#: name -> simulator callable usable by :class:`repro.ppx.client.SimulatorClient`
SIMULATOR_REGISTRY: Dict[str, Callable] = {
    "tau_decay": _tau_decay_simulator,
    "gaussian": _gaussian_simulator,
    "spectroscopy": _spectroscopy_simulator,
}


def run_client(model_name: str, host: str, port: int) -> None:
    """Connect to the PPL side and serve PPX requests until shutdown."""
    if model_name not in SIMULATOR_REGISTRY:
        raise KeyError(f"unknown simulator {model_name!r}; options: {sorted(SIMULATOR_REGISTRY)}")
    transport = connect_tcp(host, port)
    client = SimulatorClient(
        transport,
        SIMULATOR_REGISTRY[model_name],
        system_name="repro-external-simulator",
        model_name=model_name,
    )
    client.serve_forever()
    transport.close()


def start_remote_model(
    model_name: str,
    host: str = "127.0.0.1",
    timeout: float = 30.0,
    python_executable: Optional[str] = None,
) -> Tuple[RemoteModel, subprocess.Popen]:
    """Launch the simulator subprocess and return a connected :class:`RemoteModel`.

    The PPL side listens on an ephemeral TCP port; the subprocess connects to
    it and performs the PPX handshake.  The caller is responsible for calling
    ``remote.shutdown()`` and waiting for the process.
    """
    server_socket, port = listen_tcp(host=host, port=0)
    process = subprocess.Popen(
        [
            python_executable or sys.executable,
            "-m",
            "repro.simulators.external",
            "--model",
            model_name,
            "--host",
            host,
            "--port",
            str(port),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    server_socket.settimeout(timeout)
    try:
        connection, _ = server_socket.accept()
    except Exception:
        process.kill()
        raise
    finally:
        server_socket.close()
    transport = SocketTransport(connection)
    remote = RemoteModel(transport, name=f"remote-{model_name}")
    return remote, process


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description="Run a repro simulator as a PPX client process")
    parser.add_argument("--model", required=True, choices=sorted(SIMULATOR_REGISTRY))
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    args = parser.parse_args(argv)
    run_client(args.model, args.host, args.port)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
