"""Runtime knobs shared by library and CLI."""

#: component enumeration is complete up to this format; beyond it the tool
#: refuses unless best-effort mode is requested
ENUMERATION_CAP = 3
