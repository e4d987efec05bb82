"""Paper-shape checks: one module per reproduced table or figure."""
