"""Test-session set-up shared by every test module."""

import contextlib
import warnings

# Hypothesis reports a failing property through ``hypothesis.extra._patching``,
# whose first import (of libcst) raises a DeprecationWarning. Under
# ``filterwarnings = error`` that would end the whole session in an
# INTERNALERROR with no falsifying example printed, so the module is imported
# once here, with that warning ignored. Without libcst the import fails and
# hypothesis reports failures without it, as it does then anyway.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
