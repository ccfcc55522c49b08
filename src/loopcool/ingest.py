"""Loading measured data: open-loop Bode traces, plus the
cavity/electronics decomposition of a measured loop response.

File conventions: CSV, `#` starts a comment line, frequencies in Hz,
magnitudes in dB (20*log10), phases in rad.  Traces are one-sided
(positive frequencies); negative-frequency values always come from the
conjugate-reflection rule and are never stored.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import feedback, model
from .errors import BandError, ParseError, ValidationError
from .model import TWO_PI, CavityParams, Port, Tabulated

#: decompose_electronic_filter drops samples whose cavity response is below this
_MIN_RESPONSE = 1e-6
#: delay_from_phase needs at least this many samples in its band
_MIN_DELAY_SAMPLES = 10
#: the header row of a Bode trace file
_BODE_HEADER = ("frequency_hz", "magnitude_db", "phase_rad")


@dataclass(frozen=True)
class BodeTrace:
    """Measured open-loop response: (frequency Hz, magnitude dB, phase rad).

    Phase is stored unwrapped; magnitude_db = 20*log10|T|.
    """

    frequency_hz: np.ndarray
    magnitude_db: np.ndarray
    phase_rad: np.ndarray
    source: str = "<memory>"

    def __post_init__(self):
        f = np.asarray(self.frequency_hz, dtype=float)
        if f.size and not np.all(np.diff(f) > 0):
            raise ValidationError("trace frequencies must strictly increase")
        object.__setattr__(self, "frequency_hz", f)
        object.__setattr__(self, "magnitude_db", np.asarray(self.magnitude_db, float))
        object.__setattr__(
            self, "phase_rad", np.unwrap(np.asarray(self.phase_rad, float))
        )

    def values(self) -> np.ndarray:
        return 10.0 ** (self.magnitude_db / 20.0) * np.exp(1j * self.phase_rad)

    def __len__(self) -> int:
        return int(self.frequency_hz.size)


def _read_rows(path_or_stream):
    if hasattr(path_or_stream, "read"):
        fh, close, source = path_or_stream, False, "<stream>"
    else:
        fh, close, source = open(path_or_stream, "r"), True, str(path_or_stream)
    try:
        rows = []
        header_seen = False
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                cols = tuple(c.strip() for c in line.split(","))
                if cols != _BODE_HEADER:
                    raise ParseError(
                        f"{source}:{lineno}: expected header "
                        f"{','.join(_BODE_HEADER)!r}, got {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != len(_BODE_HEADER) or any(
                not part.strip() for part in parts
            ):
                raise ParseError(f"{source}:{lineno}: malformed row {line!r}")
            try:
                values = [float(part) for part in parts]
            except ValueError:
                raise ParseError(f"{source}:{lineno}: malformed row {line!r}") from None
            if not all(map(math.isfinite, values)):
                raise ParseError(f"{source}:{lineno}: non-finite value in row {line!r}")
            if rows and values[0] <= rows[-1][0]:
                raise ParseError(
                    f"{source}:{lineno}: non-monotone frequency "
                    f"({values[0]:g} after {rows[-1][0]:g})"
                )
            rows.append(values)
        if not header_seen:
            raise ParseError(f"{source}: empty file")
        if not rows:
            raise ParseError(f"{source}: no data rows")
        return rows, source
    finally:
        if close:
            fh.close()


def parse_bode(path_or_stream) -> BodeTrace:
    """Read a network-analyzer trace: header frequency_hz,magnitude_db,phase_rad."""
    rows, source = _read_rows(path_or_stream)
    f, magnitude_db, phase_rad = np.array(rows).T
    return BodeTrace(f, magnitude_db, phase_rad, source=source)


def cavity_response(p: CavityParams, port: Port, omega) -> np.ndarray:
    """Optical part of the open-loop response for the given detected port.

    The loop's open-loop transfer with a unit flat gain at eta = 1: for
    transmission feedback.open_loop_transfer (the resonant cavity-times-filter
    factorization).  Reflection has an instantaneous path from the modulator
    straight to the detector, so the full quadrature response
    feedback.loop_factor = 2*zeta_out at phi = 0 is used.
    """
    omega = np.asarray(omega, dtype=float)
    fb = model.FeedbackConfig(port=port, phi=0.0, gain=model.FlatDelay(1.0))
    if port is Port.TRANSMISSION:
        return np.asarray(feedback.open_loop_transfer(p, fb, omega))
    return np.asarray(feedback.loop_factor(p, fb, omega))


def compose_open_loop(gain, p: CavityParams, port: Port, frequency_hz) -> BodeTrace:
    """Synthesize the trace a network analyzer would record for a known
    electronic filter behind the given cavity/port."""
    f = np.asarray(frequency_hz, dtype=float)
    omega = TWO_PI * f
    t = cavity_response(p, port, omega) * np.asarray(gain(omega))
    return BodeTrace(
        frequency_hz=f,
        magnitude_db=20.0 * np.log10(np.abs(t)),
        phase_rad=np.unwrap(np.angle(t)),
        source="<synthetic>",
    )


def decompose_electronic_filter(
    trace: BodeTrace,
    p: CavityParams,
    fb_port: Port = Port.TRANSMISSION,
) -> Tabulated:
    """Divide the measured open-loop response by the cavity part, leaving
    the electronic filter g_fb as a tabulated curve.

    The detection efficiency cannot be separated from electronic gain by
    this division: the cavity part is taken at eta = 1, so the returned
    filter always absorbs sqrt(eta).  Samples where the cavity response
    magnitude falls below 1e-6 are dropped with a warning; losing more than
    10% of the trace is an error.
    """
    omega = TWO_PI * trace.frequency_hz
    response = cavity_response(p, fb_port, omega)
    keep = np.abs(response) >= _MIN_RESPONSE
    dropped = int(np.count_nonzero(~keep))
    if dropped:
        warnings.warn(
            f"dropped {dropped} samples with cavity response below {_MIN_RESPONSE:g}",
            stacklevel=2,
        )
    if dropped > 0.1 * len(trace):
        raise ValidationError(
            f"cavity response too small on {dropped}/{len(trace)} samples"
        )
    g = trace.values()[keep] / response[keep]
    return Tabulated(omega[keep], g)


def delay_from_phase(filt: Tabulated, band: tuple[float, float]) -> float:
    """Loop delay from the slope of the filter's unwrapped phase over the
    band (rad/s): a pure delay line e^{i w tau} fits slope +tau, constant
    offsets land in the intercept."""
    sel = (filt.omega >= band[0]) & (filt.omega <= band[1])
    if int(sel.sum()) < _MIN_DELAY_SAMPLES:
        raise BandError(
            f"band too sparse: {int(sel.sum())} samples, need {_MIN_DELAY_SAMPLES}"
        )
    slope, _ = np.polyfit(filt.omega[sel], filt.unwrapped_phase[sel], 1)
    return float(slope)
