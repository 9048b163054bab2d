"""Wire-facing names for the one RESP2/RESP3 codec, :mod:`repro.kvs.resp`.

Defines nothing: ``StreamParser`` *is* :class:`repro.kvs.resp.Parser`,
``WireProtocolError`` *is* :class:`repro.kvs.resp.ProtocolError`, and
``encode`` is the same function, so framing and limits are decided in
one module.
"""

from repro.kvs.resp import encode  # noqa: F401 - re-exported name
from repro.kvs.resp import Parser as StreamParser  # noqa: F401
from repro.kvs.resp import ProtocolError as WireProtocolError  # noqa: F401
