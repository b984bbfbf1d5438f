def run(ctx, kind):
    with ctx.trace.span(ctx, "vfs.raed"):
        pass
    ctx.trace.record(f"oops.{1}", 0, 0, 0)
    ctx.trace.record(f"fault.{kind}", 0, 0, 0)
