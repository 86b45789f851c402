import numpy as np

from oar_ocr_ray.png_codec import decode_png, encode_png
from oar_ocr_ray.textproc import (
    needs_space_after,
    smart_join,
    strip_boilerplate,
)


def test_png_roundtrip():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(37, 53, 3), dtype=np.uint8)
    out = decode_png(encode_png(img))
    np.testing.assert_array_equal(out, img)


def test_png_grayscale_input():
    img = np.full((5, 6), 128, dtype=np.uint8)
    out = decode_png(encode_png(img))
    assert out.shape == (5, 6, 3)
    assert (out == 128).all()


def test_boilerplate_lines():
    assert strip_boilerplate("  Home | About | Contact ") == ""
    assert strip_boilerplate("© 2024 Example Corp") == ""
    assert strip_boilerplate("Cookie Policy") == ""
    assert strip_boilerplate("The quick brown fox") != ""


def test_strip_boilerplate():
    text = "Home | About | Contact\nReal   content here.\n\n  © 2024 Foo Inc \nMore text."
    assert strip_boilerplate(text) == "Real content here.\nMore text."


def test_strip_series_matches_scalar():
    """The column strip (the Arrow kernels that the flagship and
    `queries.boilerplate_strip_docs` run) equals the per-string golden."""
    import pyarrow as pa

    from oar_ocr_ray.textproc import strip_boilerplate_arrow

    samples = [
        "Home | About | Contact\nReal   content here.\n\n© 2024 Foo\nMore text.",
        "",
        "   ",
        "no boilerplate\tat   all",
        "Menu\nNavigation\nBody line one\nBack to top",
        "a\n\n\n\nb",
        "Privacy Policy | Terms of Service\nkeep me",
        "line with trailing   \n  indented line",
    ]
    got = strip_boilerplate_arrow(pa.array(samples, pa.string())).to_pylist()
    want = [strip_boilerplate(s) for s in samples]
    assert got == want


def test_needs_space_after():
    assert needs_space_after("a") and needs_space_after("Z")
    assert not needs_space_after("中") and not needs_space_after("1")


def test_smart_join_same_line():
    # "A"+"B" same line -> "A B" (stitching.rs:754-783)
    boxes = np.array([[0, 0, 10, 10], [20, 1, 30, 11]], dtype=float)
    assert smart_join(["A", "B"], boxes) == "A B"


def test_smart_join_cjk_concatenates():
    boxes = np.array([[0, 0, 10, 10], [20, 1, 30, 11]], dtype=float)
    assert smart_join(["中", "文"], boxes) == "中文"


def test_smart_join_paragraph_break():
    # previous line ends far from container right edge -> newline
    container = (0.0, 0.0, 100.0, 50.0)
    boxes = np.array([[0, 0, 30, 10], [0, 30, 60, 40]], dtype=float)
    assert smart_join(["short", "next para"], boxes, container) == "short\nnext para"


def test_smart_join_soft_wrap():
    container = (0.0, 0.0, 100.0, 50.0)
    boxes = np.array([[0, 0, 95, 10], [0, 30, 60, 40]], dtype=float)
    assert smart_join(["full line", "continues"], boxes, container) == "full line continues"


def test_strip_boilerplate_arrow_matches_series_and_scalar():
    """The Arrow-native RE2 kernel path (the flagship text-span stage)
    must stay byte-identical to the per-string golden implementation,
    including CRLF, case-insensitive boilerplate,
    whitespace collapse and full-strip edge cases — plus randomized
    interleavings of boilerplate lines and corpus-like text."""
    import numpy as np
    import pyarrow as pa

    from oar_ocr_ray.textproc import (
        BOILERPLATE_PATTERNS,
        strip_boilerplate,
        strip_boilerplate_arrow,
    )

    fixed = [
        "Hello world\n\nAdvertisement\nreal text",
        "line1\r\nCOPYRIGHT 2021 foo\r\nline2",
        "  spaced\t\ttabs \n\n\n many newlines \n [ AD ] \n end  ",
        "share this on facebook\nkeep", "Follow us on X\n", "", "   \t  ",
        "back to top\nBACK TO TOP\n related articles: \nbody",
        "© 2024 Corp all rights\nnext", "no boiler at all",
        "\n\n\n", "a\nb\nc", "trailing spaces   \nline   ", None,
        # Unicode whitespace: RE2's \s is ASCII-only, so the Arrow path
        # rewrites it to an explicit class — NBSP / en-space / ideographic
        # space inside boilerplate lines must strip identically
        "home |\xa0about | contact\nkeep",
        "©\xa02024 Corp\nnext",
        "[ ad　]\nbody",
        "share\xa0this on x\nnot boiler (nbsp is not a literal space)",
        "line\u2028Advertisement\u2029end",  # LS/PS: python \s, not newline
    ]
    rng = np.random.default_rng(3)
    lines_pool = ["Advertisement", "back to top", "plain line", "x  y\tz",
                  "related articles:", "  ", "© 2020 acme", "last words"]
    rand = ["\n".join(rng.choice(lines_pool, size=rng.integers(1, 7)))
            for _ in range(50)]
    cases = fixed + rand
    arr = strip_boilerplate_arrow(pa.array(cases, pa.string())).to_pylist()
    sca = [strip_boilerplate(c or "") for c in cases]
    assert arr == sca
    assert len(BOILERPLATE_PATTERNS) >= 8  # guard: patterns stay shared
