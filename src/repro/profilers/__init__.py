"""The paper's two object-relative profilers."""
