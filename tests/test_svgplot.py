from xml.sax.saxutils import escape

from fgred.svgplot import _escape


def test_escape_matches_saxutils():
    # the labels' escape gives the bytes of xml.sax.saxutils.escape, which
    # replaces & first, so an existing entity is escaped again
    texts = [
        "",
        "redundancy vs WC-ATE",
        "a & b",
        "x < y > z",
        "<&>",
        "&amp; already escaped",
        "&lt;&&gt;>",
        "quotes \" and ' stay",
        "ρ_wass — naïve Δ_s ≥ 0 & ≤ 1",
    ]
    for text in texts:
        assert _escape(text) == escape(text)
