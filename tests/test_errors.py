import inspect
import re
from pathlib import Path

import pase
from pase import errors


def test_every_error_class_is_raised_in_the_package():
    # an error class that nothing raises is dead code a caller may still catch
    source = "\n".join(
        path.read_text(encoding="utf-8") for path in Path(pase.__file__).parent.glob("*.py")
    )
    classes = [
        name
        for name, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.PaseError) and cls is not errors.PaseError
    ]
    assert "ConfigError" in classes
    unraised = [name for name in classes if not re.search(rf"raise {name}\(", source)]
    assert not unraised, f"error classes nothing raises: {unraised}"
