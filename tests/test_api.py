import topoinv


def test_every_public_name_resolves():
    """Each name in topoinv.__all__ is bound, so a removed function cannot
    linger in the public list."""
    assert [name for name in topoinv.__all__ if not hasattr(topoinv, name)] == []
    assert len(set(topoinv.__all__)) == len(topoinv.__all__)
