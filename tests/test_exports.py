import tablerank


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from tablerank import *", namespace)  # raises if a name in __all__ is gone
    missing = [name for name in tablerank.__all__ if name not in namespace]
    assert missing == []
    assert len(set(tablerank.__all__)) == len(tablerank.__all__)
