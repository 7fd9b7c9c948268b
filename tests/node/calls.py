"""The one-target call tests make: a reply payload or silence."""


def ask(proc, dst, kind, payload=None, *, timeout):
    """Generator: ``proc`` sends ``dst`` one ``kind`` request through
    ``Processor.scatter`` and gathers it; returns the reply's payload,
    or ``None`` if ``dst`` stayed silent until the deadline."""
    results = yield from proc.scatter(
        (dst,), kind, lambda _dst: payload, timeout=timeout).gather()
    return results[dst]
