"""``python -m dlqw``: the ``dlqw`` command line."""

from .cli import main

raise SystemExit(main())
