"""serlink: behavioral simulator of a duty-cycled low-swing serial link.

Submodules:
  codec     8b/10b line coding and 40-bit flit framing
  datapath  DDR serializer / deserializer / shift realigner
  control   TX framing FSM, sequence detector, RX pipeline
  cdr       bang-bang clock-data recovery loop
  phy       driver, channel, comparator sampling, eye diagrams
  node      two-chip protocol simulation with DMA and GPIO handshake
  energy    power states and the duty-cycled energy model
  cli       scenario runner and CSV emission
"""

__version__ = "0.1.0"

from . import cdr, codec, control, datapath, energy, errors, node, phy  # noqa: F401
