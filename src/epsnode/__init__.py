"""Grid-map UWB novelty detection pipeline.

Modules: simulator (planar channel model), dataset (persistence and
splitting), features (RNG/MA/PCA input pipelines), autoencoder (overcomplete
dense net), novelty (error maps), evaluation (KDE + KL), gridsearch
(hyperparameter sweeps), render (heatmaps), cli (command-line toolchain).
``import epsnode`` loads none of them: import the modules you use.
"""

__version__ = "0.1.0"
