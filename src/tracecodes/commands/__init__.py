"""The subcommands of ``tracecodes``: ``cli.main`` imports the module named
after one and calls its ``run(args)``; ``common`` is their shared front end."""
