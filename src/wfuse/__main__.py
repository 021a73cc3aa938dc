import sys

if __name__ == "__main__":
    try:
        from .cli import main
    except KeyboardInterrupt:
        # Ctrl-C while the layers load ends like an interrupted command.
        try:
            print("wfuse: error: interrupted", file=sys.stderr)
        except OSError:
            pass
        sys.exit(130)
    sys.exit(main())
