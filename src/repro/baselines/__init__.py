"""Re-implemented comparison profilers from the paper's evaluation."""
