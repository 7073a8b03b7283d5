"""Test-side reference shims shared by the differential suites.

Every production window dispatch goes through ``exchange_window_packed``
(``(bits, present)`` plane pairs: the engine's phases, the randomness
exchange and both baselines).  :func:`route_per_slot` reroutes it through the
single-slot reference (``exchange_window_per_slot``, i.e. one ``transmit`` /
``corrupt`` per slot) on one live network, so a whole trial can be run once
on the production path and once on the oracle and compared field for field.
"""

from __future__ import annotations

from repro.network.transport import NoisyNetwork
from repro.utils.bitstring import pack_symbols, unpack_symbols


def route_per_slot(network: NoisyNetwork) -> NoisyNetwork:
    """Send every window dispatch of ``network`` through the per-slot oracle.

    ``exchange_window_packed`` unpacks each plane pair to symbols, runs the
    window per slot and repacks the deliveries.  Returns ``network``.
    """
    per_slot = network.exchange_window_per_slot

    def exchange_window_packed(messages, window_rounds, phase, iteration=-1, sparse=False):
        symbols = {
            link: unpack_symbols(bits, present, window_rounds)
            for link, (bits, present) in messages.items()
        }
        delivered = per_slot(symbols, window_rounds, phase, iteration, sparse)
        return {link: pack_symbols(window) for link, window in delivered.items()}

    network.exchange_window_packed = exchange_window_packed
    return network
