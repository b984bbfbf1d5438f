def run(ctx, registry, kind):
    registry.counter("page_faults").inc()
    registry.counter("page_fautls").inc()
    with ctx.trace.span(ctx, "vfs.raed"):
        pass
    ctx.trace.record(f"oops.{1}", 0, 0, 0)
    ctx.trace.record(f"fault.{kind}", 0, 0, 0)
