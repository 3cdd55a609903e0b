"""The root of every error the library raises on purpose.

Each module's base error derives from RigidconnError, so the command
line reports any of them as one error line and replay_certificate
reports any of them as a ReplayMismatch.
"""


class RigidconnError(Exception):
    pass
