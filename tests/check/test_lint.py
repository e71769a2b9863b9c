"""Unit tests for the static SPMD lint rules."""

from repro.check.lint import lint_source
from repro.check.runner import lint_report


def codes(source):
    return [d.code for d in lint_source(source, "t.py")]


class TestSPMD001:
    def test_move_dest_read_before_movewait(self):
        src = """
def kernel(ctx, rt, g, buf):
    rt.spread_move_block(buf, g, 0, 8)
    total = buf.data.sum()
    yield from rt.movewait()
"""
        assert codes(src) == ["SPMD001"]

    def test_write_move_dest_is_second_arg(self):
        src = """
def kernel(ctx, rt, g, buf):
    rt.write_move_block(buf, g, 0, 8)
    total = g.block.data.sum()
    yield from rt.movewait()
"""
        assert codes(src) == ["SPMD001"]

    def test_movewait_clears_pending(self):
        src = """
def kernel(ctx, rt, g, buf):
    rt.spread_move_block(buf, g, 0, 8)
    yield from rt.movewait()
    total = buf.data.sum()
"""
        assert codes(src) == []

    def test_unread_dest_is_fine(self):
        src = """
def kernel(ctx, rt, g, buf):
    rt.spread_move_block(buf, g, 0, 8)
    yield from rt.movewait()
"""
        assert codes(src) == []


class TestSPMD002:
    def test_undriven_blocking_call(self):
        src = """
def kernel(ctx):
    ctx.barrier()
"""
        assert codes(src) == ["SPMD002"]

    def test_driven_call_is_fine(self):
        src = """
def kernel(ctx):
    yield from ctx.barrier()
    value = yield from ctx.gop(1.0)
"""
        assert codes(src) == []

    def test_reported_once_inside_compound_statement(self):
        src = """
def kernel(ctx):
    for i in range(4):
        if i:
            ctx.finish_puts()
"""
        assert codes(src) == ["SPMD002"]

    def test_bound_generator_driven_later_is_fine(self):
        src = """
def kernel(ctx):
    gen = ctx.barrier()
    prepare(ctx)
    yield from gen
"""
        assert codes(src) == []

    def test_bound_generator_returned_is_fine(self):
        # Returning the generator hands the caller responsibility for
        # driving it (a common wrapper-helper shape).
        src = """
def make_wait(ctx, flag):
    gen = ctx.flag_wait(flag, 1)
    return gen
"""
        assert codes(src) == []

    def test_bound_generator_dropped_is_still_flagged(self):
        src = """
def kernel(ctx):
    gen = ctx.barrier()
    other = ctx.gop(1.0)
    yield from gen
"""
        assert codes(src) == ["SPMD002"]


class TestSPMD003:
    def test_in_place_packet_used_after_blocking_call(self):
        src = """
def kernel(ctx):
    pkt = yield from ctx.recv(src=1, in_place=True)
    other = yield from ctx.recv(src=2)
    use(pkt.data)
"""
        assert codes(src) == ["SPMD003"]

    def test_copying_recv_is_fine(self):
        src = """
def kernel(ctx):
    pkt = yield from ctx.recv(src=1)
    other = yield from ctx.recv(src=2)
    use(pkt.data)
"""
        assert codes(src) == []

    def test_in_place_used_before_next_recv_is_fine(self):
        src = """
def kernel(ctx):
    pkt = yield from ctx.recv(src=1, in_place=True)
    use(pkt.data)
    other = yield from ctx.recv(src=2)
"""
        assert codes(src) == []


class TestSuppression:
    def test_ignore_comment_suppresses(self):
        src = """
def kernel(ctx):
    ctx.barrier()  # spmd: ignore
"""
        assert codes(src) == []

    def test_code_scoped_ignore(self):
        src = """
def kernel(ctx):
    ctx.barrier()  # spmd: ignore[SPMD002]
"""
        assert codes(src) == []

    def test_wrong_code_does_not_suppress(self):
        src = """
def kernel(ctx):
    ctx.barrier()  # spmd: ignore[SPMD001]
"""
        assert codes(src) == ["SPMD002"]

    def test_ignore_file_suppresses_everywhere(self):
        src = """# spmd: ignore-file
def kernel(ctx):
    ctx.barrier()

def other(ctx):
    ctx.gop(1.0)
"""
        assert codes(src) == []

    def test_code_scoped_ignore_file(self):
        src = """# spmd: ignore-file[SPMD002]
def kernel(ctx, rt, g, buf):
    ctx.barrier()
    rt.spread_move_block(buf, g, 0, 8)
    total = buf.data.sum()
    yield from rt.movewait()
"""
        # SPMD002 is gone file-wide; SPMD001 still reports.
        assert codes(src) == ["SPMD001"]

    def test_per_line_ignore_covers_what_file_level_leaves(self):
        src = """# spmd: ignore-file[SPMD002]
def kernel(ctx, rt, g, buf):
    ctx.barrier()
    rt.spread_move_block(buf, g, 0, 8)
    total = buf.data.sum()  # spmd: ignore[SPMD001]
    yield from rt.movewait()
"""
        assert codes(src) == []


class TestSyntaxError:
    def test_broken_source_reports_spmd000(self):
        assert codes("def kernel(:\n") == ["SPMD000"]


class TestShippedSources:
    def test_apps_and_examples_are_clean(self):
        report = lint_report()
        assert report.clean, report.render()
        assert report.stats["files"] >= 15
