"""Context-aware sarcasm detection over (conversation context, reply) pairs.

Library layout: errors (exception hierarchy), nn (numerical core),
embeddings, data (corpus pipeline), synthetic (toy corpora and vectors),
checkpoint (the checkpoint file format), features (discrete features + SVM
baseline), models (LSTM variants with attention), evaluate (metrics,
overlap, heatmaps), config (run configuration), cli (pipeline driver).
"""

__version__ = "0.1.0"
