from homdom.cli import main

raise SystemExit(main())
