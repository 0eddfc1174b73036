"""``python -m cedrf``: the command line without an installed script."""

from .cli import main

raise SystemExit(main())
