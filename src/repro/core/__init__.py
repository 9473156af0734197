"""The paper's core: object-relative tuples, translation, and the
OMC/CDC/SCC components of the Figure 4 framework (the SCCs carry the
horizontal and vertical decomposition)."""
